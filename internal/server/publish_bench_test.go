package server

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/ebb"
)

// BenchmarkPublishBatch prices one epoch publish after a batch of ops
// on a 64-type population: the delta path (DeltaAnalyzer.Apply, one
// refresh per batch) against the from-scratch rebuild (NoDelta). The
// batch alternates an admit with the release of a random live session,
// so the population stays at its size; the ops run with the timer
// stopped, so ns/op is the publish alone. sessions-5000/ops-2048 is one
// shard of the perfbench hop-churn workload (10k sessions over two
// shards, a publish every 4096 ops); sessions-10000/ops-64 is its
// hop-bounds workload. The crossover it shows is what the daemon's
// delta eligibility limits (Config.DeltaMaxOps, DeltaMaxFraction) are
// set from; see DESIGN.md §12.
func BenchmarkPublishBatch(b *testing.B) {
	for _, n := range []int{5_000, 10_000} {
		for _, k := range []int{64, 256, 1024, 2048, 4096} {
			for _, full := range []bool{false, true} {
				mode := "delta"
				if full {
					mode = "full"
				}
				b.Run(fmt.Sprintf("sessions-%d/ops-%d/%s", n, k, mode), func(b *testing.B) {
					benchPublishBatch(b, n, k, full)
				})
			}
		}
	}
}

func benchPublishBatch(b *testing.B, population, batch int, full bool) {
	palette := make([]AdmitRequest, 64)
	rate := 0.0
	for k := range palette {
		palette[k] = AdmitRequest{
			Name:    "bench",
			Arrival: ebb.Process{Rho: 0.04 + 0.0005*float64(k), Lambda: 1, Alpha: 1.2},
			Target:  admission.Target{Delay: 40, Eps: 1e-3},
		}
		g, err := admission.RequiredRate(palette[k].Arrival, palette[k].Target)
		if err != nil {
			b.Fatal(err)
		}
		rate = max(rate, g)
	}
	d, err := New(Config{
		Rate:             rate * float64(population+batch),
		QueueDepth:       1 << 14,
		MaxBatch:         1 << 30,
		MaxEpochAge:      time.Hour,
		NoDelta:          full,
		DeltaMaxOps:      batch,
		DeltaMaxFraction: 1,
		SelfCheckEvery:   -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := d.Close(ctx); err != nil {
			b.Error(err)
		}
	})
	rng := rand.New(rand.NewSource(1))
	live := make([]uint64, 0, population+batch)
	admit := func() {
		res, err := d.Admit(palette[rng.Intn(len(palette))])
		if err != nil || !res.Admitted {
			b.Fatalf("admit: admitted=%v err=%v", res.Admitted, err)
		}
		live = append(live, res.ID)
	}
	for len(live) < population {
		admit()
	}
	if err := d.Rebuild(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for op := 0; op < batch; op++ {
			if op%2 == 0 {
				admit()
				continue
			}
			k := rng.Intn(len(live))
			if ok, err := d.Release(live[k]); err != nil || !ok {
				b.Fatalf("release: ok=%v err=%v", ok, err)
			}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		b.StartTimer()
		if err := d.Rebuild(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := d.met.DeltaRebuilds.Load() > 0; got == full {
		b.Fatalf("full=%v but %d delta publishes", full, d.met.DeltaRebuilds.Load())
	}
}
