// Command perfbench is gpsd's end-to-end benchmark. It drives the real
// internal/server, internal/wal, internal/replication, internal/cluster
// and internal/network code in one process, through the HTTP handlers
// gpsd mounts, with one closed-loop client, and checks what it serves
// against offline analyses. See README.md for the workloads, the
// metrics and how to run it; run.py builds and runs it.
//
//	perfbench --workload hop-churn --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero
// when a correctness check fails or the run cannot complete.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// config is one invocation. The sizes default to the benchmark's; the
// self-test shrinks them.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	dir      string // scratch directory for every WAL the run writes
	flip     bool   // serve bounds with one bit flipped (self-test only)
	topology string // cluster-tree's topology file

	population      int // hop sessions
	clusterSessions int // end-to-end sessions on the tree
	setups          int // stagings timed for setup_s
	restarts        int // restarts timed for recover_s
	warmup          int // untimed loop iterations before the window
	heapEvery       int // untimed loop iterations before each live-heap sample
	heapSamples     int // live-heap samples live_heap_mb is the median of
	samples         int // sessions whose bounds are checked in bits
	reads           int // hop sessions whose bounds are read (and timed) after the window
}

func defaults(workload string) config {
	cfg := config{workload: workload, topology: "configs/tree63.json",
		population: 10_000, clusterSessions: 200, setups: 9, restarts: 7, samples: 6, reads: 25, heapSamples: 9}
	switch workload {
	case "hop-churn":
		cfg.warmup, cfg.heapEvery = 4096, 2048 // one publish per heap sample
	case "hop-bounds":
		cfg.warmup, cfg.heapEvery = 64, 32
	case "cluster-tree":
		// A coordinator restart probes every (session, hop) pair, about
		// 3 s here; three keep the run inside its time budget. The heap
		// samples span about two fills of the hops' evaluation memo,
		// about 40 iterations each.
		cfg.warmup, cfg.heapEvery, cfg.heapSamples, cfg.setups, cfg.restarts = 4, 4, 21, 3, 3
	}
	return cfg
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// e2eGated are the end-to-end metrics in the JSON result (and in
// BENCHMARK.json): measured on every workload, never zero, and with at
// least ten samples beyond every percentile at the benchmark's size.
// Every timing is process CPU time: on a shared host the wall-clock
// figures drift with the other tenants' load by more than any bound a
// later change could be held to (see README.md).
// Admit latency is not gated: a hop admit takes about 20 µs, too short
// for its CPU time to repeat (README.md, Steadiness).
var e2eGated = []metricDef{
	{"setup_s", "s"}, {"cpu_ms_per_op", "ms"}, {"bounds_cpu_p50_ms", "ms"},
	{"recover_cpu_s", "s"}, {"live_heap_mb", "MB"},
}

// e2eReported are printed in the report only: the wall-clock figures
// and the admit latencies (the traced run also gives the main ones as
// wall.* and cpu.* per-layer metrics), tails with too few samples on
// some workload, and the failure ratio, which is zero on a good run
// (failed/attempted carry it).
var e2eReported = []metricDef{
	{"admit_cpu_p50_ms", "ms"}, {"admit_cpu_p90_ms", "ms"},
	{"ops_per_s", "1/s"}, {"admit_p50_ms", "ms"}, {"admit_p90_ms", "ms"}, {"admit_p99_ms", "ms"},
	{"bounds_p50_ms", "ms"}, {"bounds_p90_ms", "ms"}, {"recover_s", "s"}, {"setup_wall_s", "s"},
	{"fail_ratio", "1"},
}

// demoted maps the ungated end-to-end figures the traced run reports,
// from its untraced half, to their per-layer names.
var demoted = map[string]string{
	"admit_cpu_p50_ms": "cpu.admit_p50_ms", "admit_cpu_p90_ms": "cpu.admit_p90_ms",
	"ops_per_s": "wall.ops_per_s", "admit_p50_ms": "wall.admit_p50_ms", "admit_p90_ms": "wall.admit_p90_ms",
	"bounds_p50_ms": "wall.bounds_p50_ms", "recover_s": "wall.recover_s", "setup_wall_s": "wall.setup_s",
}

// layerMetrics are the per-layer metrics in the traced JSON result. A
// layer a workload never reaches reads 0.
var layerMetrics = []metricDef{
	{"http.self_us_p50", "us"},
	{"writer.admit_us_p50", "us"}, {"writer.release_us_p50", "us"},
	{"wal.append_us_p50", "us"}, {"wal.appends", "count"}, {"wal.snapshots", "count"}, {"wal.snapshot_ms_p50", "ms"},
	{"audit.record_us_p50", "us"},
	{"epoch.publish_ms_p50", "ms"}, {"epoch.publish_ms_p90", "ms"},
	{"epoch.delta_builds", "count"}, {"epoch.full_builds", "count"}, {"epoch.fallbacks", "count"},
	{"bounds.eval_ms_p50", "ms"}, {"bounds.eval_ms_p90", "ms"},
	{"gc.cpu_frac", "1"}, {"gc.pause_ms_total", "ms"}, {"alloc.kb_per_op", "KB"},
	{"coord.admit_ms_p50", "ms"}, {"coord.release_ms_p50", "ms"}, {"coord.unattributed_ms_p50", "ms"},
	{"hop_rpc.prepare_us_p50", "us"}, {"hop_rpc.commit_us_p50", "us"}, {"hop_rpc.release_us_p50", "us"},
	{"hop_rpc.calls_per_admit", "count"},
	{"crst.analyze_ms_p50", "ms"}, {"hop.publish_ms_p50", "ms"},
	{"recover.wal_open_ms", "ms"}, {"recover.replayed_ops", "count"}, {"recover.boot_ms", "ms"},
	{"recover.first_read_ms", "ms"}, {"recover.probe_calls", "count"}, {"recover.probe_ms_p50", "ms"},
	{"trace.ops_per_s", "1/s"}, {"trace.overhead_frac", "1"},
	{"wall.ops_per_s", "1/s"}, {"wall.admit_p50_ms", "ms"}, {"wall.admit_p90_ms", "ms"},
	{"wall.bounds_p50_ms", "ms"}, {"wall.recover_s", "s"}, {"wall.setup_s", "s"},
	{"cpu.admit_p50_ms", "ms"}, {"cpu.admit_p90_ms", "ms"},
}

// loopStats are the client's observations in one timed loop.
type loopStats struct {
	admit, release, bounds latencies
	attempted, failed, ops int
	firstErr               error
	slices                 []slice
	// q holds the latency percentiles once summarize has dropped the
	// samples; n counts them.
	q map[string]float64
	n map[string]int
}

// summarize computes the latency percentiles and drops the samples, so
// live_heap_mb measures the program rather than the client's arrays.
func (s *loopStats) summarize() {
	s.q = map[string]float64{
		"admit_p50_ms":      quantile(s.admit.wall, 0.5),
		"admit_p90_ms":      quantile(s.admit.wall, 0.9),
		"admit_p99_ms":      quantile(s.admit.wall, 0.99),
		"admit_cpu_p50_ms":  quantile(s.admit.cpu, 0.5),
		"admit_cpu_p90_ms":  quantile(s.admit.cpu, 0.9),
		"bounds_p50_ms":     quantile(s.bounds.wall, 0.5),
		"bounds_p90_ms":     quantile(s.bounds.wall, 0.9),
		"bounds_cpu_p50_ms": quantile(s.bounds.cpu, 0.5),
	}
	s.n = map[string]int{"admit": s.admit.len(), "release": s.release.len(), "bounds": s.bounds.len()}
	s.admit, s.release, s.bounds = latencies{}, latencies{}, latencies{}
}

// op counts one client operation and reports whether it succeeded.
func (s *loopStats) op(err error) bool {
	s.attempted++
	if err != nil {
		s.failed++
		if s.firstErr == nil {
			s.firstErr = err
		}
		return false
	}
	s.ops++
	return true
}

// outcome is everything one workload run measured.
type outcome struct {
	tr      *tracer
	setup   latencies // one per staging
	recover latencies // one per restart
	stats   *loopStats
	plain   *loopStats // traced run: its untraced half
	r0, r1  runtimeSample
	heapMB  float64
	// heapSamples are the live-heap samples heapMB is the median of.
	heapSamples []float64
	reads       latencies // bounds reads for bounds_p50_ms when the loop has none
	win         *window   // traced window
	untraced    float64   // traced run: ops/s of its untraced half
	layer       map[string]float64
	// counters reads the program's cumulative publish and snapshot
	// counters; the window's deltas become per-layer metrics.
	counters func() map[string]float64
	checks   []string
}

func (o *outcome) pass(format string, args ...any) {
	o.checks = append(o.checks, fmt.Sprintf(format, args...))
}

// timedLoop runs step until d has passed, after draining the heap.
func timedLoop(d time.Duration, step func(*loopStats) error) (*loopStats, runtimeSample, runtimeSample, error) {
	st := &loopStats{}
	drainHeap()
	r0 := readRuntime()
	next, lastCPU, lastOps, lastWall := r0.wall.Add(d/slices), r0.cpu, 0, r0.wall
	for {
		now := time.Now()
		if !now.Before(next) {
			cpu := cpuTime()
			st.slices = append(st.slices, slice{wall: now.Sub(lastWall), cpu: cpu - lastCPU, ops: st.ops - lastOps})
			lastWall, lastCPU, lastOps = now, cpu, st.ops
			for !next.After(now) {
				next = next.Add(d / slices)
			}
		}
		if now.Sub(r0.wall) >= d {
			break
		}
		if err := step(st); err != nil {
			return nil, r0, r0, err
		}
	}
	return st, r0, readRuntime(), nil
}

// slices is how many equal parts of the window are timed apart.
const slices = 10

// slice is one part of the timed window.
type slice struct {
	wall, cpu time.Duration
	ops       int
}

// timedLoops runs the measured window. Untraced, that is one loop of
// cfg.seconds. Traced, the loop runs twice for half as long each: first
// with every wrapper a pass-through, then recording, so the traced
// ops/s sits beside an untraced one from the same process and state.
func timedLoops(cfg config, out *outcome, step func(*loopStats) error) error {
	d := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		st, r0, r1, err := timedLoop(d/2, step)
		if err != nil {
			return err
		}
		out.untraced = float64(st.ops) / r1.wall.Sub(r0.wall).Seconds()
		st.summarize()
		out.plain = st
		out.win = newWindow()
		out.tr.record(out.win)
		d /= 2
	}
	before := out.counters()
	st, r0, r1, err := timedLoop(d, step)
	if out.tr != nil {
		out.tr.record(nil)
	}
	if err != nil {
		return err
	}
	for k, v := range out.counters() {
		out.layer[k] = v - before[k]
	}
	st.summarize()
	out.stats, out.r0, out.r1 = st, r0, r1
	// The live heap moves with the state the loop leaves behind (a hop's
	// memo of per-type target evaluations fills and clears in a
	// sawtooth), so it is sampled after each of several untimed stretches
	// of the loop, spanning about two sawteeth on cluster-tree, and the
	// median is reported. Their operations count as attempted.
	extra := &loopStats{}
	heap := make([]float64, 0, cfg.heapSamples)
	for k := 0; k < cfg.heapSamples; k++ {
		for i := 0; i < cfg.heapEvery; i++ {
			if err := step(extra); err != nil {
				return err
			}
		}
		extra.admit, extra.release, extra.bounds = latencies{}, latencies{}, latencies{}
		heap = append(heap, liveHeapMB())
	}
	st.attempted, st.failed = st.attempted+extra.attempted, st.failed+extra.failed
	if st.firstErr == nil {
		st.firstErr = extra.firstErr
	}
	out.heapSamples = heap
	out.heapMB = median(append([]float64(nil), heap...))
	return nil
}

// run executes one workload and returns its measurements; a failed
// correctness check is returned as an error alongside them.
func run(cfg config) (*outcome, error) {
	out := &outcome{layer: map[string]float64{}}
	if cfg.trace {
		out.tr = &tracer{}
	}
	var err error
	switch cfg.workload {
	case "hop-churn":
		err = runHop(cfg, hopSpec{shards: 2, publishEvery: 4096}, out)
	case "hop-bounds":
		err = runHop(cfg, hopSpec{shards: 1, publishEvery: 64, reads: true}, out)
	case "cluster-tree":
		err = runCluster(cfg, out)
	default:
		return nil, fmt.Errorf("unknown workload %q (want hop-churn, hop-bounds or cluster-tree)", cfg.workload)
	}
	return out, err
}

// endToEnd derives the end-to-end metrics of a run from the loop
// statistics st (the window's, or the traced run's untraced half).
func endToEnd(out *outcome, st *loopStats) map[string]float64 {
	var rates, cpus []float64
	for _, sl := range st.slices {
		rates = append(rates, float64(sl.ops)/sl.wall.Seconds())
		cpus = append(cpus, ms(sl.cpu)/float64(max(sl.ops, 1)))
	}
	m := map[string]float64{
		"setup_s":       median(append([]float64(nil), out.setup.cpu...)) / 1e3,
		"setup_wall_s":  median(append([]float64(nil), out.setup.wall...)) / 1e3,
		"ops_per_s":     median(rates),
		"cpu_ms_per_op": median(cpus),
		"recover_s":     median(append([]float64(nil), out.recover.wall...)) / 1e3,
		"recover_cpu_s": median(append([]float64(nil), out.recover.cpu...)) / 1e3,
		"live_heap_mb":  out.heapMB,
		"fail_ratio":    float64(st.failed) / float64(max(st.attempted, 1)),
	}
	for k, v := range st.q {
		m[k] = v
	}
	if st.n["bounds"] == 0 {
		m["bounds_p50_ms"] = quantile(out.reads.wall, 0.5)
		m["bounds_p90_ms"] = quantile(out.reads.wall, 0.9)
		m["bounds_cpu_p50_ms"] = quantile(out.reads.cpu, 0.5)
	}
	return m
}

// perLayer derives the per-layer metrics of a traced run.
func perLayer(out *outcome) map[string]float64 {
	m := out.layer
	s := out.win.samples
	us := func(key string) float64 { return 1e3 * median(s[key]) }
	m["http.self_us_p50"] = us("http.self")
	m["writer.admit_us_p50"] = us("writer.admit")
	m["writer.release_us_p50"] = us("writer.release")
	m["wal.append_us_p50"] = us("wal.append")
	m["wal.appends"] = float64(len(s["wal.append"]))
	m["wal.snapshot_ms_p50"] = median(out.tr.snaps)
	m["audit.record_us_p50"] = us("audit.record")
	m["epoch.publish_ms_p50"] = median(s["epoch.publish"])
	m["epoch.publish_ms_p90"] = quantile(s["epoch.publish"], 0.9)
	m["bounds.eval_ms_p50"] = median(s["bounds.eval"])
	m["bounds.eval_ms_p90"] = quantile(s["bounds.eval"], 0.9)
	m["coord.admit_ms_p50"] = median(s["coord.admit"])
	m["coord.release_ms_p50"] = median(s["coord.release"])
	if local, reads := s["coord.admit_local"], s["coord.bounds"]; len(local) > 0 && len(local) == len(reads) {
		// Each iteration's route-bounds read, right after its admit, runs
		// one AnalyzeCRST of the same-size set inside the coordinator under
		// the same collector pacing, so the admit's own remainder is the
		// median of the per-iteration differences. Subtracting the offline
		// probe instead would leave GC noise larger than the remainder.
		d := make([]float64, len(local))
		for i := range local {
			d[i] = local[i] - reads[i]
		}
		m["coord.unattributed_ms_p50"] = median(d)
	}
	m["hop.publish_ms_p50"] = median(s["hop.publish"])
	m["hop_rpc.prepare_us_p50"] = us("hop_rpc.prepare")
	m["hop_rpc.commit_us_p50"] = us("hop_rpc.commit")
	m["hop_rpc.release_us_p50"] = us("hop_rpc.release")
	if n := len(s["coord.admit"]); n > 0 {
		m["hop_rpc.calls_per_admit"] = float64(len(s["hop_rpc.prepare"])+len(s["hop_rpc.commit"])) / float64(n)
	}
	r0, r1 := out.r0, out.r1
	if cpu := r1.totalCPU - r0.totalCPU; cpu > 0 {
		m["gc.cpu_frac"] = (r1.gcCPU - r0.gcCPU) / cpu
	}
	m["gc.pause_ms_total"] = float64(r1.pauseNano-r0.pauseNano) / 1e6
	m["alloc.kb_per_op"] = float64(r1.allocs-r0.allocs) / 1024 / float64(max(out.stats.ops, 1))
	traced := float64(out.stats.ops) / r1.wall.Sub(r0.wall).Seconds()
	m["trace.ops_per_s"] = traced
	if out.untraced > 0 {
		m["trace.overhead_frac"] = 1 - traced/out.untraced
	}
	for name, v := range endToEnd(out, out.plain) {
		if key, ok := demoted[name]; ok {
			m[key] = v
		}
	}
	for _, d := range layerMetrics {
		if _, ok := m[d.name]; !ok {
			m[d.name] = 0
		}
	}
	return m
}

// writeTable prints the traced window's per-layer self times; the
// unattributed row (the client, the benchmark's bookkeeping, and
// anything no wrapper covers) makes them add up to the window's wall
// time.
func writeTable(w io.Writer, out *outcome) {
	wall := out.r1.wall.Sub(out.r0.wall)
	fmt.Fprintf(w, "per-layer self time over the traced window (%.3f s wall, %d ops):\n", wall.Seconds(), out.stats.ops)
	var sum time.Duration
	row := func(name string, d time.Duration) {
		fmt.Fprintf(w, "  %-14s %10.3f ms  %6.2f%%  %9.4f ms/op\n", name, ms(d), 100*d.Seconds()/wall.Seconds(),
			ms(d)/float64(max(out.stats.ops, 1)))
	}
	for _, l := range tableOrder {
		if d, ok := out.win.self[l]; ok {
			row(l, d)
			sum += d
		}
	}
	row(layerOther, wall-sum)
	row("sum", wall)
	if reads := out.win.samples["coord.bounds"]; len(reads) > 0 {
		// Admit and the route-bounds read after a release each run one
		// AnalyzeCRST of the committed set inside the coordinator.
		crst, n := median(reads), out.stats.n["admit"]
		fmt.Fprintf(w, "  of coord: AnalyzeCRST ≈ 2 × %.3f ms (route-bounds read) × %d iterations = %.1f%% of wall; offline probe %.3f ms\n",
			crst, n, 100*2*crst*float64(n)/1e3/wall.Seconds(), out.layer["crst.analyze_ms_p50"])
	}
	fmt.Fprintf(w, "tracing overhead: %.1f ops/s traced vs %.1f ops/s untraced (%.1f%%)\n",
		out.layer["trace.ops_per_s"], out.untraced, 100*out.layer["trace.overhead_frac"])
}

// join formats xs, each multiplied by k, on one line.
func join(xs []float64, k float64) string {
	var b strings.Builder
	for i, v := range xs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.4f", k*v)
	}
	return b.String()
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report prints the human-readable report and then the JSON result line.
func report(w io.Writer, cfg config, out *outcome, checkErr error) error {
	st := out.stats
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	e2e := endToEnd(out, st)
	fmt.Fprintf(w, "client: %d ops attempted, %d failed; samples admit=%d release=%d bounds=%d (post-window reads %d)\n",
		st.attempted, st.failed, st.n["admit"], st.n["release"], st.n["bounds"], out.reads.len())
	if st.firstErr != nil {
		fmt.Fprintf(w, "first failure: %v\n", st.firstErr)
	}
	fmt.Fprintf(w, "whole window: %.1f ops/s, %.6f cpu ms/op; per slice:", float64(st.ops)/out.r1.wall.Sub(out.r0.wall).Seconds(),
		ms(out.r1.cpu-out.r0.cpu)/float64(max(st.ops, 1)))
	for _, sl := range st.slices {
		fmt.Fprintf(w, " %.1f", float64(sl.ops)/sl.wall.Seconds())
	}
	fmt.Fprintf(w, "\ncpu ms/op per slice:")
	for _, sl := range st.slices {
		fmt.Fprintf(w, " %.6g", ms(sl.cpu)/float64(max(sl.ops, 1)))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "set-up CPU s: %s; restart CPU s: %s; live heap MB: %s\n",
		join(out.setup.cpu, 1e-3), join(out.recover.cpu, 1e-3), join(out.heapSamples, 1))
	for _, d := range append(append([]metricDef(nil), e2eGated...), e2eReported...) {
		fmt.Fprintf(w, "  %-16s %14.6f %s\n", d.name, e2e[d.name], d.unit)
	}
	for _, c := range out.checks {
		fmt.Fprintf(w, "check ok: %s\n", c)
	}
	res := jsonResult{Correct: checkErr == nil, Attempted: st.attempted, Failed: st.failed, Metrics: map[string]jsonMetric{}}
	if checkErr != nil {
		fmt.Fprintf(w, "check FAILED: %v\n", checkErr)
	}
	if cfg.trace {
		layer := perLayer(out)
		writeTable(w, out)
		names := make([]string, 0, len(layerMetrics))
		for _, d := range layerMetrics {
			res.Metrics[d.name] = jsonMetric{layer[d.name], d.unit}
			names = append(names, d.name)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "  %-26s %14.6f %s\n", n, layer[n], res.Metrics[n].Unit)
		}
	} else {
		for _, d := range e2eGated {
			res.Metrics[d.name] = jsonMetric{e2e[d.name], d.unit}
		}
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func main() {
	workload := flag.String("workload", "", "hop-churn, hop-bounds or cluster-tree")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "length of the timed window")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	flag.Parse()
	cfg := defaults(*workload)
	cfg.seed, cfg.seconds, cfg.trace = *seed, *seconds, *trace == 1
	err := os.MkdirAll(".bench_build", 0o755)
	var dir string
	if err == nil {
		dir, err = os.MkdirTemp(".bench_build", "wal-")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	cfg.dir = dir
	code := 0
	out, err := run(cfg)
	var checkErr *checkError
	switch {
	case err == nil:
		err = report(os.Stdout, cfg, out, nil)
	case asCheck(err, &checkErr) && out.stats != nil:
		code = 1
		err = report(os.Stdout, cfg, out, checkErr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		code = 2
	}
	if rmErr := os.RemoveAll(dir); rmErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", rmErr)
	}
	os.Exit(code)
}
