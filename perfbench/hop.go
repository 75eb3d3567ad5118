package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/admission"
	"repro/internal/ebb"
	"repro/internal/replication"
	"repro/internal/server"
	"repro/internal/wal"
)

// client issues requests straight into an http.Handler: the handler's
// routing, JSON decode and encode run for real, kernel sockets do not.
type client struct{ h http.Handler }

func (c client) call(method, target string, body []byte) (int, []byte) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, target, rd)
	if err != nil {
		return 0, []byte(err.Error())
	}
	rec := httptest.NewRecorder()
	c.h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// idSet is the client's view of the live sessions: O(1) add, seeded
// random pick, and swap-remove.
type idSet struct{ ids []string }

func (s *idSet) add(id string)         { s.ids = append(s.ids, id) }
func (s *idSet) pick(r *rand.Rand) int { return r.IntN(len(s.ids)) }
func (s *idSet) len() int              { return len(s.ids) }
func (s *idSet) removeAt(i int) string {
	id := s.ids[i]
	last := len(s.ids) - 1
	s.ids[i] = s.ids[last]
	s.ids = s.ids[:last]
	return id
}

// gone keeps a seeded uniform sample of at most goneMax released ids,
// so the client's memory stays flat however long the window runs.
type gone struct {
	ids []string
	n   int
}

const goneMax = 1000

func (g *gone) add(r *rand.Rand, id string) {
	g.n++
	if len(g.ids) < goneMax {
		g.ids = append(g.ids, id)
	} else if k := r.IntN(g.n); k < goneMax {
		g.ids[k] = id
	}
}

type admitReply struct {
	Admitted bool   `json:"admitted"`
	ID       string `json:"id"`
	Reason   string `json:"reason"`
}

// admittedID returns the id of an acknowledged admit, or an error
// describing why the reply is a failure.
func admittedID(code int, body []byte) (string, error) {
	if code != http.StatusOK {
		return "", fmt.Errorf("admit: HTTP %d: %s", code, bytes.TrimSpace(body))
	}
	var r admitReply
	if err := json.Unmarshal(body, &r); err != nil {
		return "", fmt.Errorf("admit: decode: %v", err)
	}
	if !r.Admitted || r.ID == "" {
		return "", fmt.Errorf("admit refused: %s", r.Reason)
	}
	return r.ID, nil
}

// hopPalette is the 64-type palette of the repository's sharded
// admission benchmark, as encoded admit bodies: distinct ρ, so the
// shard key spreads the types over every shard. It returns the largest
// required rate among them.
func hopPalette() ([][]byte, float64, error) {
	pal := make([][]byte, 64)
	maxG := 0.0
	for k := range pal {
		arr := ebb.Process{Rho: 0.04 + 0.0005*float64(k), Lambda: 1, Alpha: 1.2}
		target := admission.Target{Delay: 40, Eps: 1e-3}
		g, err := admission.RequiredRate(arr, target)
		if err != nil {
			return nil, 0, err
		}
		maxG = max(maxG, g)
		body, err := json.Marshal(map[string]any{"name": "bench", "rho": arr.Rho, "lambda": arr.Lambda,
			"alpha": arr.Alpha, "delay": target.Delay, "eps": target.Eps})
		if err != nil {
			return nil, 0, err
		}
		pal[k] = body
	}
	return pal, maxG, nil
}

// hopNode is one hop daemon built the way gpsd -wal-dir builds it:
// wal.OpenStriped, replication.OpenAudit per stripe, server.NewSharded.
type hopNode struct {
	dir    string
	svc    *server.Sharded
	audits []*replication.Audit
	h      http.Handler
}

// openCost is what opening a hop or a coordinator cost, split at the
// public calls.
type openCost struct {
	walOpen  time.Duration // hop: OpenStriped + OpenAudit; coordinator: marker + wal.Open + OpenAudit
	replayed int           // log-suffix ops replayed
	boot     time.Duration // hop: NewSharded, which publishes; coordinator: cluster.New (fold + reconcile)
}

// openHop opens (or recovers) the hop in dir. A non-nil tracer wraps
// every seam; flip wraps the Service so bounds reads come back with one
// bit changed (the self-test's proof that the correctness gate fires).
func openHop(dir string, shards int, cfg server.Config, tr *tracer, flip bool) (*hopNode, openCost, error) {
	var st openCost
	start := time.Now()
	logs, recs, err := wal.OpenStriped(dir, shards, wal.Options{Sync: wal.SyncBatch})
	if err != nil {
		return nil, st, fmt.Errorf("open WAL %s: %w", dir, err)
	}
	n := &hopNode{dir: dir, audits: make([]*replication.Audit, shards)}
	alogs := make([]server.AdmissionLog, shards)
	asinks := make([]server.AuditSink, shards)
	for i, l := range logs {
		head := l.NextSeq() - 1
		a, err := replication.OpenAudit(filepath.Join(dir, wal.StripeDirName(i)), replication.AuditOptions{WALHead: &head})
		if err != nil {
			return nil, st, fmt.Errorf("open audit trail (stripe %d): %w", i, err)
		}
		n.audits[i] = a
		alogs[i], asinks[i] = l, a
		if tr != nil {
			alogs[i], asinks[i] = tracedLog{l, tr}, tracedAudit{a, tr}
		}
		st.replayed += len(recs[i].Ops)
	}
	st.walOpen = time.Since(start)
	start = time.Now()
	n.svc, err = server.NewSharded(cfg, shards, alogs, recs, asinks)
	if err != nil {
		return nil, st, fmt.Errorf("start hop: %w", err)
	}
	st.boot = time.Since(start)
	var svc server.Service = n.svc
	if tr != nil {
		svc = tracedService{svc, tr}
	}
	if flip {
		svc = flipService{svc}
	}
	n.h = server.NewHandler(svc)
	if tr != nil {
		n.h = tracedHandler{n.h, tr}
	}
	return n, st, nil
}

// close drains the writers (each takes a final snapshot and closes its
// stripe), then the audit trails.
func (n *hopNode) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := n.svc.Close(ctx)
	for _, a := range n.audits {
		err = errors.Join(err, a.Close())
	}
	return err
}

func (n *hopNode) rebuild(tr *tracer) error {
	return tr.span(layerEpoch, "epoch.publish", n.svc.Rebuild)
}

// flipService flips the lowest bit of every served delay bound.
type flipService struct{ server.Service }

func (s flipService) Bounds(id uint64, q, dly float64) (server.BoundsReport, bool) {
	rep, ok := s.Service.Bounds(id, q, dly)
	rep.DelayProb = flipBit(rep.DelayProb)
	return rep, ok
}

// epochCounters sums the publish and snapshot counters of every shard
// of the given hops.
func epochCounters(hops []*hopNode) map[string]float64 {
	m := map[string]float64{}
	for _, h := range hops {
		for i := 0; i < h.svc.Shards(); i++ {
			met := h.svc.Shard(i).Metrics()
			m["epoch.delta_builds"] += float64(met.DeltaRebuilds.Load())
			m["epoch.full_builds"] += float64(met.FullRebuilds.Load())
			m["epoch.fallbacks"] += float64(met.DeltaFallbacks.Load())
			m["wal.snapshots"] += float64(met.WALSnapshots.Load())
		}
	}
	return m
}

// hopSpec is one hop workload's shape.
type hopSpec struct {
	shards       int
	publishEvery int  // mutations between client publishes
	reads        bool // one bounds read per publish
}

// hopRun is the state one hop workload carries from set-up to checks.
type hopRun struct {
	cfg      config
	spec     hopSpec
	scfg     server.Config
	pal      [][]byte
	tr       *tracer
	node     *hopNode
	live     idSet
	released gone
	typ      map[string]int // live session id → palette type
	rng      *rand.Rand
	mut      int // mutations since the last publish
	reads    int // bounds reads the loop has issued
}

func runHop(cfg config, spec hopSpec, out *outcome) error {
	pal, maxG, err := hopPalette()
	if err != nil {
		return err
	}
	r := &hopRun{cfg: cfg, spec: spec, pal: pal, tr: out.tr,
		scfg: server.Config{
			// Every staged and churned admit fits: the population never
			// exceeds cfg.population+1 sessions of at most maxG each.
			Rate:        maxG * float64(cfg.population+1024),
			QueueDepth:  1 << 14,
			MaxBatch:    1 << 30, // the client publishes; no size trigger
			MaxEpochAge: time.Hour,
		}}
	defer func() {
		if r.node != nil {
			r.node.close()
		}
	}()

	// Set-up: stage the same seeded population several times, each into
	// a fresh hop, and keep the last.
	for s := 0; s < cfg.setups; s++ {
		if r.node != nil {
			if err := r.node.close(); err != nil {
				return err
			}
			r.node = nil
		}
		dir := filepath.Join(cfg.dir, fmt.Sprintf("hop-%d", s))
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		drainHeap()
		sw := startWatch()
		if err := r.stage(dir); err != nil {
			return err
		}
		out.setup.add(sw)
	}

	r.rng = rand.New(rand.NewPCG(cfg.seed, 2))
	c := client{r.node.h}
	for i := 0; i < cfg.warmup; i++ {
		if err := r.iterate(c, &loopStats{}); err != nil {
			return err
		}
	}
	out.counters = func() map[string]float64 { return epochCounters([]*hopNode{r.node}) }
	if err := timedLoops(cfg, out, func(st *loopStats) error { return r.iterate(c, st) }); err != nil {
		return err
	}
	return r.check(out)
}

// stage opens a fresh hop in dir, admits the seeded population through
// the public admit path and publishes once.
func (r *hopRun) stage(dir string) error {
	n, _, err := openHop(dir, r.spec.shards, r.scfg, r.tr, r.cfg.flip)
	if err != nil {
		return err
	}
	r.node = n
	r.live = idSet{ids: make([]string, 0, r.cfg.population+1)}
	r.typ = make(map[string]int, r.cfg.population+1)
	r.released = gone{}
	rng := rand.New(rand.NewPCG(r.cfg.seed, 1))
	c := client{n.h}
	// Every palette type holds the same share of the population (to one
	// session), admitted in seeded order, so every seed loads the hop
	// alike.
	for _, k := range rng.Perm(r.cfg.population) {
		t := k % len(r.pal)
		id, err := admittedID(c.call(http.MethodPost, "/v1/admit", r.pal[t]))
		if err != nil {
			return fmt.Errorf("staging: %w", err)
		}
		r.live.add(id)
		r.typ[id] = t
	}
	return n.rebuild(nil)
}

// readType is the palette type of the k-th bounds read: a stride prime
// to the palette size visits every type once per 64 reads and spreads
// any run of reads evenly over the palette, since a bound's cost
// depends on the session's type.
func readType(k int) int { return k * 37 % 64 }

// ofType returns a seeded random live session of palette type t (or,
// should failed admits have emptied the type, of whatever type the last
// draw gave).
func (r *hopRun) ofType(rng *rand.Rand, t int) string {
	id := ""
	for k := 0; k < 1<<16; k++ {
		if id = r.live.ids[r.live.pick(rng)]; r.typ[id] == t {
			break
		}
	}
	return id
}

// iterate is one closed-loop step: admit a session of the palette type
// of a seeded live session (so the population's mix never drifts),
// release that live session, and publish when the batch is full (then
// read one published session's bounds, on hop-bounds).
func (r *hopRun) iterate(c client, st *loopStats) error {
	j := r.live.pick(r.rng)
	victim := r.live.ids[j]
	t := r.typ[victim]
	sw := startWatch()
	id, err := admittedID(c.call(http.MethodPost, "/v1/admit", r.pal[t]))
	st.admit.add(sw)
	if st.op(err) {
		r.live.add(id)
		r.typ[id] = t
	}
	sw = startWatch()
	code, body := c.call(http.MethodDelete, "/v1/sessions/"+victim, nil)
	st.release.add(sw)
	if st.op(statusErr("release", code, body)) {
		r.released.add(r.rng, r.live.removeAt(j))
		delete(r.typ, victim)
	}
	r.mut += 2
	if r.mut < r.spec.publishEvery {
		return nil
	}
	r.mut = 0
	if err := r.node.rebuild(r.tr); err != nil {
		return fmt.Errorf("publish: %w", err)
	}
	if r.spec.reads {
		id := r.ofType(r.rng, readType(r.reads))
		r.reads++
		sw = startWatch()
		code, body := c.call(http.MethodGet, "/v1/bounds/"+id, nil)
		st.bounds.add(sw)
		st.op(statusErr("bounds", code, body))
	}
	return nil
}

func statusErr(what string, code int, body []byte) error {
	if code == http.StatusOK {
		return nil
	}
	return fmt.Errorf("%s: HTTP %d: %s", what, code, bytes.TrimSpace(body))
}

// hopID parses a client-side id string.
func hopID(s string) uint64 {
	v, _ := strconv.ParseUint(s, 10, 64)
	return v
}
