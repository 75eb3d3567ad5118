package main

import (
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/wal"
)

// The traced run times each layer from outside, by wrapping the public
// seams the program already exposes: the http.Handler the client calls,
// the server.Service behind it, the server.AdmissionLog and
// server.AuditSink a hop writer appends to, the coordinator's
// http.RoundTripper, and the client's own Rebuild calls. Nothing inside
// the program is instrumented.
//
// Every workload runs exactly one client operation at a time, and each
// layer call blocks its caller until the layer below returns (the hop
// writer goroutine answers a submit only after its WAL append and audit
// record), so the spans of one operation nest strictly in time even
// when they run on different goroutines. One global span stack
// therefore yields exact self times: a span's duration minus the
// durations of the spans opened inside it. The WAL snapshot is the one
// call that runs on a background goroutine; it is timed on its own and
// kept off the stack, because it is not on any reply path.

// Layer names, the rows of the per-layer table.
const (
	layerHTTP   = "http"    // hop server.NewHandler, minus the Service call
	layerWriter = "writer"  // Service mutations, minus WAL append and audit record
	layerWAL    = "wal"     // AdmissionLog.Append
	layerAudit  = "audit"   // AuditSink.Record (hop stripes and coordinator journal)
	layerEpoch  = "epoch"   // Sharded.Rebuild, called by the client
	layerBounds = "bounds"  // Service.Bounds
	layerCoord  = "coord"   // cluster.NewHandler, minus hop RPCs and audit record
	layerRPC    = "hop_rpc" // coordinator RoundTripper, minus the hop handler
	layerOther  = "unattributed"
)

// tableOrder is the row order of the per-layer table.
var tableOrder = []string{layerCoord, layerRPC, layerHTTP, layerWriter, layerWAL, layerAudit, layerEpoch, layerBounds}

type frame struct {
	layer string
	start time.Time
	child time.Duration
}

// window collects what the tracer observes while it is on: per layer
// self time (the table rows) and named per-call samples.
type window struct {
	self    map[string]time.Duration
	samples map[string][]float64 // milliseconds
}

func newWindow() *window {
	return &window{self: map[string]time.Duration{}, samples: map[string][]float64{}}
}

type tracer struct {
	on atomic.Bool // off: every wrapper is a bare pass-through

	mu     sync.Mutex
	stack  []frame
	win    *window
	rpcSum time.Duration // hop RPC time since the last coordinator span opened
	snaps  []float64     // every WAL snapshot, in or out of a window
}

// record turns the tracer on into w; record(nil) turns it off.
func (t *tracer) record(w *window) {
	t.mu.Lock()
	t.win = w
	t.mu.Unlock()
	t.on.Store(w != nil)
}

// enter opens a span of layer if the tracer is on, and reports whether
// it did; the caller hands that report to leave.
func (t *tracer) enter(layer string) bool {
	if !t.on.Load() {
		return false
	}
	t.mu.Lock()
	t.stack = append(t.stack, frame{layer: layer, start: time.Now()})
	t.mu.Unlock()
	return true
}

// leave closes the innermost span and samples it under key: its self
// time, or its whole duration when whole is set. It returns the
// duration.
func (t *tracer) leave(opened bool, key string, whole bool) time.Duration {
	if !opened {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	dur := now.Sub(f.start)
	self := dur - f.child
	if n > 0 {
		t.stack[n-1].child += dur
	}
	if t.win == nil {
		return dur
	}
	t.win.self[f.layer] += self
	if whole {
		self = dur
	}
	t.win.samples[key] = append(t.win.samples[key], ms(self))
	return dur
}

// add samples d under key if the tracer is on; a nil tracer ignores it.
func (t *tracer) add(key string, d time.Duration) {
	if t == nil || !t.on.Load() {
		return
	}
	t.mu.Lock()
	if t.win != nil {
		t.win.samples[key] = append(t.win.samples[key], ms(d))
	}
	t.mu.Unlock()
}

// span runs fn as one span of layer, sampled under key. A nil tracer
// runs fn bare, so untraced call sites pay nothing.
func (t *tracer) span(layer, key string, fn func() error) error {
	if t == nil {
		return fn()
	}
	on := t.enter(layer)
	err := fn()
	t.leave(on, key, false)
	return err
}

// tracedService wraps the hop's server.Service.
type tracedService struct {
	server.Service
	t *tracer
}

func (s tracedService) Admit(req server.AdmitRequest) (server.AdmitResult, error) {
	on := s.t.enter(layerWriter)
	defer s.t.leave(on, "writer.admit", false)
	return s.Service.Admit(req)
}

func (s tracedService) Release(id uint64) (bool, error) {
	on := s.t.enter(layerWriter)
	defer s.t.leave(on, "writer.release", false)
	return s.Service.Release(id)
}

// Prepare and CommitPrepared are the admit-side mutations a hop sees
// under the coordinator; they count as writer.admit.
func (s tracedService) Prepare(req server.PrepareRequest) (server.PrepareResult, error) {
	on := s.t.enter(layerWriter)
	defer s.t.leave(on, "writer.admit", false)
	return s.Service.Prepare(req)
}

func (s tracedService) CommitPrepared(txid string, shard int) (server.CommitResult, error) {
	on := s.t.enter(layerWriter)
	defer s.t.leave(on, "writer.admit", false)
	return s.Service.CommitPrepared(txid, shard)
}

func (s tracedService) Bounds(id uint64, q, dly float64) (server.BoundsReport, bool) {
	on := s.t.enter(layerBounds)
	defer s.t.leave(on, "bounds.eval", true)
	return s.Service.Bounds(id, q, dly)
}

// tracedLog wraps one WAL stripe.
type tracedLog struct {
	server.AdmissionLog
	t *tracer
}

func (l tracedLog) Append(ops []wal.Op) error {
	on := l.t.enter(layerWAL)
	defer l.t.leave(on, "wal.append", false)
	return l.AdmissionLog.Append(ops)
}

// Snapshot runs on the writer's background goroutine (and synchronously
// at close), off every reply path, so it is timed alone, always, and
// never joins the span stack.
func (l tracedLog) Snapshot(st wal.State) error {
	start := time.Now()
	err := l.AdmissionLog.Snapshot(st)
	d := time.Since(start)
	l.t.mu.Lock()
	l.t.snaps = append(l.t.snaps, ms(d))
	l.t.mu.Unlock()
	return err
}

// tracedAudit wraps an audit trail (hop stripe or coordinator journal).
type tracedAudit struct {
	rec interface{ Record(wal.Op) }
	t   *tracer
}

func (a tracedAudit) Record(op wal.Op) {
	on := a.t.enter(layerAudit)
	defer a.t.leave(on, "audit.record", false)
	a.rec.Record(op)
}

// tracedHandler wraps a hop's HTTP surface.
type tracedHandler struct {
	h http.Handler
	t *tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	on := h.t.enter(layerHTTP)
	defer h.t.leave(on, "http.self", false)
	h.h.ServeHTTP(w, r)
}

// tracedCoord wraps the coordinator's HTTP surface. Its samples are the
// whole handler call per route, plus the admit's time outside hop RPCs.
type tracedCoord struct {
	h http.Handler
	t *tracer
}

func (h tracedCoord) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.t.mu.Lock()
	h.t.rpcSum = 0
	h.t.mu.Unlock()
	key := "coord.bounds"
	switch r.Method {
	case http.MethodPost:
		key = "coord.admit"
	case http.MethodDelete:
		key = "coord.release"
	}
	on := h.t.enter(layerCoord)
	h.h.ServeHTTP(w, r)
	dur := h.t.leave(on, key, true)
	if key == "coord.admit" {
		h.t.mu.Lock()
		local := dur - h.t.rpcSum
		h.t.mu.Unlock()
		h.t.add("coord.admit_local", local)
	}
}

// tracedRT wraps the coordinator's hop transport, split by hop path.
type tracedRT struct {
	rt http.RoundTripper
	t  *tracer
}

func (rt tracedRT) RoundTrip(req *http.Request) (*http.Response, error) {
	on := rt.t.enter(layerRPC)
	resp, err := rt.rt.RoundTrip(req)
	dur := rt.t.leave(on, rpcKey(req), true)
	rt.t.mu.Lock()
	rt.t.rpcSum += dur
	rt.t.mu.Unlock()
	return resp, err
}

func rpcKey(req *http.Request) string {
	p := req.URL.Path
	switch {
	case p == "/v1/prepare":
		return "hop_rpc.prepare"
	case p == "/v1/commit":
		return "hop_rpc.commit"
	case p == "/v1/abort":
		return "hop_rpc.abort"
	case strings.HasPrefix(p, "/v1/sessions/"):
		return "hop_rpc.release"
	case strings.HasPrefix(p, "/v1/bounds/"):
		return "hop_rpc.probe"
	default:
		return "hop_rpc.other"
	}
}
