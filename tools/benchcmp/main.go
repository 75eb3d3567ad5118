// Command benchcmp guards the hot paths against performance regressions:
// it loads the two newest BENCH_*.json snapshots (lexicographic name
// order, which the timestamped naming makes chronological), compares
// ns/op for a named set of hot-path benchmarks, and exits non-zero if
// any of them regressed by more than the threshold.
//
// The workflow is snapshot-to-snapshot, not measure-on-the-spot: `make
// bench` writes a new snapshot, and `make benchcheck` (in CI alongside
// `make perfcheck`) validates it against the previously committed one.
// That keeps the gate deterministic — CI never benchmarks a loaded
// shared runner.
//
// Two snapshots are comparable only if one host produced both: benchjson
// stamps each with the CPU model `go test` reports and GOMAXPROCS, and
// the gate fails when the two newest stamps differ (measure the parent
// commit on the same host and commit that snapshot first). Two unstamped
// snapshots, written before the stamp existed, compare as before. The
// stamp only rules pairs out: a virtual machine often reports a generic
// model ("Intel(R) Xeon(R) Processor"), and equal stamps prove neither
// the same host nor the same load. `make benchpair` takes both
// snapshots in one interleaved run, which is what makes a pair
// comparable.
//
//	go run ./tools/benchcmp            # compare two newest in .
//	go run ./tools/benchcmp -max 0.10  # tighter gate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// hotPaths are the benchmarks the performance contract covers: the
// simulator inner loops, scheduler queues, the single-node and network
// (CRST) bound-analysis scaling ladders, and the streaming/sharded
// harness. Benchmarks absent from the
// older snapshot (newly added) are reported but cannot regress; a hot
// path that disappears from the newer snapshot fails the gate.
var hotPaths = []string{
	"AdmitThroughput",
	"AdmitThroughputScaling/sessions-1000000",
	"AdmitThroughputSharded/shards-1/sessions-10000",
	"AdmitThroughputSharded/shards-1/sessions-1000000",
	"AdmitThroughputSharded/shards-8/sessions-1000000",
	"ClusterAdmit",
	"EpochDelta/sessions-10000",
	"EpochDelta/sessions-131072",
	"EpochDelta/sessions-1000000",
	"FluidSim",
	"NetSim",
	"HierSim",
	"WFQScheduler",
	"WF2QScheduler",
	"AnalyzeScaling/sessions-4",
	"AnalyzeScaling/sessions-16",
	"AnalyzeScaling/sessions-64",
	"AnalyzeScaling/sessions-1024",
	"AnalyzeScaling/sessions-16384",
	"AnalyzeScaling/sessions-131072",
	"AnalyzeCRSTScaling/sessions-1000",
	"AnalyzeCRSTScaling/sessions-10000",
	"AnalyzeCRSTScaling/hops-63",
	"BoundsRead/sessions-10000",
	"BoundsRead/distinct-200",
	"TreeSimSharded",
	"TailInterleaved",
}

type result struct {
	Name    string  `json:"name"`
	NsPerOp float64 `json:"ns_per_op"`
}

type snapshot struct {
	Date       string   `json:"date"`
	Benchmarks []result `json:"benchmarks"`
	host
}

// host is the snapshot's stamp; the zero value marks a legacy,
// unstamped snapshot.
type host struct {
	CPU        string `json:"cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func (h host) String() string {
	if h == (host{}) {
		return "unstamped"
	}
	return fmt.Sprintf("cpu %q, GOMAXPROCS %d", h.CPU, h.GOMAXPROCS)
}

func load(path string) (map[string]float64, host, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, host{}, err
	}
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, host{}, fmt.Errorf("%s: %w", path, err)
	}
	m := make(map[string]float64, len(snap.Benchmarks))
	for _, b := range snap.Benchmarks {
		m[b.Name] = b.NsPerOp
	}
	return m, snap.host, nil
}

func main() {
	dir := flag.String("dir", ".", "directory holding the BENCH_*.json snapshots")
	max := flag.Float64("max", 0.15, "largest tolerated hot-path slowdown (0.15 = +15% ns/op)")
	list := flag.String("benchmarks", "", "comma-separated hot-path override (default: built-in list)")
	flag.Parse()

	names := hotPaths
	if *list != "" {
		names = strings.Split(*list, ",")
	}
	if err := compare(os.Stdout, *dir, *max, names); err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(1)
	}
}

// compare runs the gate over the two newest snapshots in dir, writing
// the per-benchmark report to w. A nil error means the gate passed.
func compare(w io.Writer, dir string, max float64, names []string) error {
	files, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return err
	}
	sort.Strings(files)
	if len(files) < 2 {
		fmt.Fprintf(w, "benchcmp: %d snapshot(s) in %s, nothing to compare\n", len(files), dir)
		return nil
	}
	oldPath, newPath := files[len(files)-2], files[len(files)-1]
	oldNs, oldHost, err := load(oldPath)
	if err != nil {
		return err
	}
	newNs, newHost, err := load(newPath)
	if err != nil {
		return err
	}
	if oldHost != newHost {
		return fmt.Errorf("%s (%s) and %s (%s) come from different hosts; "+
			"measure the parent on this host (`make bench` at the parent commit), commit that snapshot, then the new one",
			filepath.Base(oldPath), oldHost, filepath.Base(newPath), newHost)
	}

	fmt.Fprintf(w, "benchcmp: %s -> %s (hot-path gate: +%.0f%% ns/op)\n",
		filepath.Base(oldPath), filepath.Base(newPath), max*100)
	failed := 0
	for _, name := range names {
		o, inOld := oldNs[name]
		n, inNew := newNs[name]
		switch {
		case !inOld && !inNew:
			continue
		case !inNew:
			fmt.Fprintf(w, "  FAIL %-34s removed from newest snapshot\n", name)
			failed++
		case !inOld:
			fmt.Fprintf(w, "  new  %-34s %12.1f ns/op (no baseline)\n", name, n)
		default:
			delta := n/o - 1
			verdict := "ok  "
			if delta > max {
				verdict = "FAIL"
				failed++
			}
			fmt.Fprintf(w, "  %s %-34s %12.1f -> %12.1f ns/op (%+.1f%%)\n", verdict, name, o, n, delta*100)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d hot-path benchmark(s) regressed beyond +%.0f%%", failed, max*100)
	}
	fmt.Fprintln(w, "benchcmp: hot paths within budget")
	return nil
}
