package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// tiny shrinks a workload so the self-test runs in seconds.
func tiny(t *testing.T, workload string, trace bool) config {
	cfg := defaults(workload)
	cfg.seed, cfg.seconds, cfg.trace = 7, 0.4, trace
	cfg.dir = t.TempDir()
	cfg.topology = "../configs/tree63.json"
	cfg.population, cfg.clusterSessions = 300, 12
	cfg.setups, cfg.restarts, cfg.warmup, cfg.samples, cfg.reads, cfg.heapEvery, cfg.heapSamples = 2, 2, 2, 3, 4, 1, 3
	return cfg
}

// TestWorkloadsReportEveryMetric runs every workload untraced and traced
// and checks the report names every metric with its unit, the result
// line carries exactly the gated set, and the run is correct.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	for _, w := range []string{"hop-churn", "hop-bounds", "cluster-tree"} {
		for _, trace := range []bool{false, true} {
			cfg := tiny(t, w, trace)
			out, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			var buf bytes.Buffer
			if err := report(&buf, cfg, out, nil); err != nil {
				t.Fatalf("%s trace=%v: report: %v", w, trace, err)
			}
			text := strings.TrimSpace(buf.String())
			lines := strings.Split(text, "\n")
			var res jsonResult
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: result %+v", w, trace, res)
			}
			want := e2eGated
			if trace {
				want = layerMetrics
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics in the result, want %d", w, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: result metric %s = %+v, want unit %s", w, trace, d.name, m, d.unit)
				}
			}
			for _, d := range append(append([]metricDef(nil), e2eGated...), e2eReported...) {
				if !reportLine(lines, d) {
					t.Errorf("%s trace=%v: report has no %s line in %s", w, trace, d.name, d.unit)
				}
			}
			if trace && !strings.Contains(text, "unattributed") {
				t.Errorf("%s: traced report has no unattributed row", w)
			}
		}
	}
}

func reportLine(lines []string, d metricDef) bool {
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) == 3 && f[0] == d.name && f[2] == d.unit {
			return true
		}
	}
	return false
}

// TestGateCatchesFlippedBit serves every hop bound with its lowest bit
// flipped; the correctness gate must refuse the run.
func TestGateCatchesFlippedBit(t *testing.T) {
	for _, w := range []string{"hop-churn", "hop-bounds"} {
		cfg := tiny(t, w, false)
		cfg.flip = true
		_, err := run(cfg)
		var ce *checkError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: run with a flipped bound returned %v, want a correctness failure", w, err)
		}
	}
}
