package main

import (
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// writeSnap writes a BENCH snapshot with one hot-path benchmark at ns
// ns/op and the given host stamp fields (empty for a legacy snapshot).
func writeSnap(t *testing.T, dir, name string, ns float64, stamp string) {
	t.Helper()
	body := `{"date":"2026-10-18",` + stamp + `"benchmarks":[{"name":"FluidSim","ns_per_op":` +
		strconv.FormatFloat(ns, 'g', -1, 64) + `}]}`
	if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

const (
	hostA  = `"cpu":"Example CPU A","gomaxprocs":2,`
	hostB  = `"cpu":"Example CPU B","gomaxprocs":2,`
	hostA8 = `"cpu":"Example CPU A","gomaxprocs":8,`
)

// TestCompareHostStamps: the gate compares only snapshots from one host
// (or two legacy, unstamped ones) and fails, rather than skips, on a
// mismatch.
func TestCompareHostStamps(t *testing.T) {
	for _, tc := range []struct {
		name     string
		old, new string
		newNs    float64
		wantErr  string
	}{
		{"same host, within budget", hostA, hostA, 100, ""},
		{"same host, regression", hostA, hostA, 200, "regressed"},
		{"legacy pair compares as before", "", "", 100, ""},
		{"legacy pair still gated", "", "", 200, "regressed"},
		{"different CPU", hostA, hostB, 100, "measure the parent on this host"},
		{"different GOMAXPROCS", hostA, hostA8, 100, "measure the parent on this host"},
		{"legacy against stamped", "", hostA, 100, "measure the parent on this host"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeSnap(t, dir, "BENCH_2026-10-18T000000Z.json", 100, tc.old)
			writeSnap(t, dir, "BENCH_2026-10-18T010000Z.json", tc.newNs, tc.new)
			err := compare(io.Discard, dir, 0.15, []string{"FluidSim"})
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("gate failed: %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("gate error %v, want one containing %q", err, tc.wantErr)
			}
		})
	}
}
