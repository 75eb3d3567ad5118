package server

import (
	"context"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gpsmath"
	"repro/internal/source"
)

// TestConcurrentChurnEpochInvariants drives N goroutines of
// admit/release/bounds churn against one daemon while a checker
// validates every published epoch: the feasible partition must be
// exactly what the paper's construction yields for the epoch's session
// set, the index maps must be consistent, and sampled bounds must be
// bit-identical to a fresh offline AnalyzeServer. Run under -race (the
// Makefile test target always is), this is the subsystem's concurrency
// contract.
func TestConcurrentChurnEpochInvariants(t *testing.T) {
	const (
		workers = 4
		iters   = 60
		maxOwn  = 8 // per-worker session cap keeps rebuilds cheap under -race
	)
	d := newTestDaemon(t, Config{
		Rate:        1000,
		MaxEpochAge: 5 * time.Millisecond,
		MaxBatch:    16,
	})

	var epochsSeen atomic.Int64
	checkerDone := make(chan struct{})
	stop := make(chan struct{})
	go func() {
		defer close(checkerDone)
		lastSeq := uint64(0)
		for {
			ep := d.CurrentEpoch()
			if ep.Seq != lastSeq {
				lastSeq = ep.Seq
				epochsSeen.Add(1)
				checkEpoch(t, ep)
			}
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()

	var wg sync.WaitGroup
	var netAdmitted atomic.Int64
	// The churn must span several published epochs for the checker to
	// test anything concurrent. Epochs publish on a 5 ms clock, and a
	// fast enough daemon finishes iters ops within one or two of them,
	// so workers keep churning past iters until the checker has seen a
	// few epochs (bounded by a deadline; the assertion below stands).
	deadline := time.Now().Add(5 * time.Second)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := source.NewRNG(uint64(w)*7919 + 1)
			var mine []uint64
			for i := 0; i < iters || (epochsSeen.Load() < 4 && time.Now().Before(deadline)); i++ {
				switch {
				case len(mine) == 0 || (len(mine) < maxOwn && rng.Float64() < 0.55):
					res, err := d.Admit(testTypes[rng.Intn(len(testTypes))])
					if err != nil {
						t.Errorf("worker %d admit: %v", w, err)
						return
					}
					if res.Admitted {
						mine = append(mine, res.ID)
						netAdmitted.Add(1)
					}
				case rng.Float64() < 0.5:
					k := rng.Intn(len(mine))
					ok, err := d.Release(mine[k])
					if err != nil {
						t.Errorf("worker %d release: %v", w, err)
						return
					}
					if !ok {
						t.Errorf("worker %d: own session %d not found", w, mine[k])
					}
					mine = append(mine[:k], mine[k+1:]...)
					netAdmitted.Add(-1)
				default:
					// Lock-free read path: bounds from whatever epoch is
					// current; the id may legitimately not be there yet.
					ep := d.CurrentEpoch()
					id := mine[rng.Intn(len(mine))]
					if rep, ok := ep.BoundsFor(id, 1, 10); ok {
						if math.IsNaN(rep.DelayProb) || rep.DelayProb < 0 {
							t.Errorf("worker %d: delay prob %v", w, rep.DelayProb)
						}
					} else if !d.Pending(id) {
						t.Errorf("worker %d: live session %d neither in epoch nor pending", w, id)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-checkerDone

	// Drain and check the final epoch agrees with the surviving set.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	final := d.CurrentEpoch()
	checkEpoch(t, final)
	if got, want := final.Sessions(), int(netAdmitted.Load()); got != want {
		t.Errorf("final epoch has %d sessions, want %d (admits minus releases)", got, want)
	}
	if epochsSeen.Load() < 2 {
		t.Errorf("checker observed %d epochs; churn should publish several", epochsSeen.Load())
	}
	if d.Metrics().RebuildFailures.Load() != 0 {
		t.Errorf("%d epoch rebuild failures", d.Metrics().RebuildFailures.Load())
	}
}

// checkEpoch asserts one published epoch is internally consistent and
// that its feasible partition is valid — i.e. identical to what the
// eqs. (37)–(39) construction produces for the epoch's session set.
func checkEpoch(t *testing.T, ep *Epoch) {
	t.Helper()
	if ep.Sessions() == 0 {
		if ep.Analysis != nil {
			t.Error("empty epoch carries an analysis")
		}
		return
	}
	if ep.Analysis == nil {
		t.Errorf("epoch %d: %d sessions but no analysis", ep.Seq, ep.Sessions())
		return
	}
	if len(ep.IDs) != len(ep.Server.Sessions) {
		t.Errorf("epoch %d: inconsistent id mapping (%d ids, %d sessions)",
			ep.Seq, len(ep.IDs), len(ep.Server.Sessions))
	}
	used := 0.0
	for i, id := range ep.IDs {
		if j, ok := ep.IndexOf(id); !ok || j != i {
			t.Errorf("epoch %d: IndexOf(%d) = %d, %v, want %d", ep.Seq, id, j, ok, i)
		}
		used += ep.Server.Sessions[i].Phi
	}
	if math.Abs(used-ep.Used) > 1e-9*(1+used) {
		t.Errorf("epoch %d: Used %v but Σφ %v", ep.Seq, ep.Used, used)
	}
	part, err := ep.Server.FeasiblePartition()
	if err != nil {
		t.Errorf("epoch %d: published set has no feasible partition: %v", ep.Seq, err)
		return
	}
	if !reflect.DeepEqual(part, ep.Analysis.Partition) {
		t.Errorf("epoch %d: published partition differs from recomputed feasible partition", ep.Seq)
	}
	for i, class := range ep.Analysis.Partition.ClassOf {
		if class < 0 || class >= ep.Analysis.Partition.L() {
			t.Errorf("epoch %d: session %d unplaced (class %d)", ep.Seq, i, class)
		}
	}
	// Spot-check one session against a fresh offline analysis: the
	// acceptance differential, sampled (the full sweep is
	// TestEpochDifferential; under -race a per-epoch sweep would
	// dominate the test).
	if ep.Seq%3 != 0 {
		return
	}
	fresh, err := gpsmath.AnalyzeServer(ep.Server, gpsmath.Options{Independent: true, Xi: gpsmath.XiOptimal})
	if err != nil {
		t.Errorf("epoch %d: offline AnalyzeServer failed: %v", ep.Seq, err)
		return
	}
	i := int(ep.Seq) % ep.Sessions()
	for _, q := range []float64{1, 8} {
		if math.Float64bits(ep.Analysis.BestBacklogTailValue(i, q)) !=
			math.Float64bits(fresh.BestBacklogTailValue(i, q)) {
			t.Errorf("epoch %d: session %d backlog bound at q=%v not bit-identical to offline", ep.Seq, i, q)
		}
	}
	if math.Float64bits(ep.Analysis.BestDelayTailValue(i, 15)) !=
		math.Float64bits(fresh.BestDelayTailValue(i, 15)) {
		t.Errorf("epoch %d: session %d delay bound not bit-identical to offline", ep.Seq, i)
	}
}
