package gpsmath

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/ebb"
	"repro/internal/source"
)

// paletteServer draws n sessions from a palette of the given number of
// declared types in seeded order (types == 0: every session is its own
// type), at total load 0.9. Sessions of one type share every float, as
// the daemon's admitted sessions of one declared type do, so the
// feasible ordering holds them in runs of identical Lemma 6 terms.
func paletteServer(n, types int, seed uint64) Server {
	rng := source.NewRNG(seed)
	k := types
	if k == 0 {
		k = n
	}
	palette := make([]Session, k)
	for t := range palette {
		rho := 0.5 + rng.Float64()
		palette[t] = Session{
			Name:    fmt.Sprintf("type%d", t),
			Phi:     rho * (1 + rng.Float64()),
			Arrival: ebb.Process{Rho: rho, Lambda: 0.5 + 2*rng.Float64(), Alpha: 0.5 + 2*rng.Float64()},
		}
	}
	srv := Server{}
	total := 0.0
	for i := 0; i < n; i++ {
		s := palette[i%k]
		if types > 0 {
			s = palette[rng.Intn(k)]
		}
		srv.Sessions = append(srv.Sessions, s)
		total += s.Arrival.Rho
	}
	srv.Rate = total / 0.9
	return srv
}

// runProbe samples θ near 0 (where every Lemma 6 factor is huge and the
// product overflows within a few predecessors), across the range, near
// and at the ceiling, and outside it.
func runProbe(thetaMax float64) []float64 {
	out := []float64{-1, 0, math.Nextafter(thetaMax, 0), thetaMax, thetaMax * 1.001}
	for _, f := range []float64{1e-12, 1e-9, 1e-6, 1e-4, 1e-3, 1e-2, 0.25, 0.5, 0.9, 0.999, 1 - 1e-12} {
		out = append(out, f*thetaMax)
	}
	return out
}

// orderingBoundsWithRef builds the production Theorem 7 (independent) or
// auto-exponent Theorem 8 bound at pos together with a copy whose
// prefactor is the per-term reference.
func orderingBoundsWithRef(t testing.TB, m *orderingMemo, pos int, independent bool, mode XiMode) (got, want *SessionBounds, ref func(float64) (float64, int)) {
	got = new(SessionBounds)
	var err error
	if independent {
		err = m.theorem7Into(got, pos, mode)
	} else {
		err = m.theorem8Into(got, pos, nil, mode)
	}
	if err != nil {
		t.Fatalf("pos %d: %v", pos, err)
	}
	if independent {
		ref = m.theorem7PrefactorRef(pos, got.ThetaMax, mode)
	} else {
		ref = m.theorem8AutoPrefactorRef(pos, got.ThetaMax, mode)
	}
	w := *got
	w.Prefactor = func(theta float64) float64 {
		v, _ := ref(theta)
		return v
	}
	return got, &w, ref
}

// compareTails pins every evaluator built on the prefactor — backlog and
// delay tails, quantiles and the output characterization — bit for bit.
func compareTails(t *testing.T, tag string, got, want *SessionBounds) {
	t.Helper()
	for _, q := range []float64{0, 0.5, 5, 50} {
		if a, b := got.BacklogTail(q), want.BacklogTail(q); !sameBits(a, b) {
			t.Fatalf("%s: BacklogTail(%v) = %v, per-term reference %v", tag, q, a, b)
		}
	}
	for _, d := range []float64{1, 25} {
		if a, b := got.DelayTail(d), want.DelayTail(d); !sameBits(a, b) {
			t.Fatalf("%s: DelayTail(%v) = %v, per-term reference %v", tag, d, a, b)
		}
	}
	for _, eps := range []float64{1e-3, 1e-9} {
		if a, b := got.BacklogQuantile(eps), want.BacklogQuantile(eps); !sameBits(a, b) {
			t.Fatalf("%s: BacklogQuantile(%v) = %v, per-term reference %v", tag, eps, a, b)
		}
	}
	for _, r := range []float64{got.Rho * 1.5, got.Rho * 0.5} {
		a, errA := got.BestOutputEBB(r)
		b, errB := want.BestOutputEBB(r)
		if (errA == nil) != (errB == nil) || !sameBits(a.Rho, b.Rho) ||
			!sameBits(a.Lambda, b.Lambda) || !sameBits(a.Alpha, b.Alpha) {
			t.Fatalf("%s: BestOutputEBB(%v) = %v (%v), per-term reference %v (%v)", tag, r, a, errA, b, errB)
		}
	}
}

// TestOrderingRunsMatchPerTerm pins the run kernel behind the Theorem 7
// and auto-exponent Theorem 8 prefactors to the per-term reference:
// every position, both ξ modes, palettes of 1, 2 and 64 types and an
// all-distinct population, θ across the whole range — including the
// products that overflow in the middle of a run, where the early exit
// must land on the same +Inf.
func TestOrderingRunsMatchPerTerm(t *testing.T) {
	type population struct {
		name  string
		srv   Server
		split EpsilonSplit
	}
	var pops []population
	for _, tc := range []struct{ n, types int }{
		{1, 1}, {6, 1}, {240, 1}, {240, 2}, {320, 64}, {160, 0},
	} {
		pops = append(pops, population{
			name: fmt.Sprintf("n=%d types=%d", tc.n, tc.types),
			srv:  paletteServer(tc.n, tc.types, uint64(tc.n*131+tc.types)),
		})
	}
	// Types that differ only in φ: one arrival triple, so under the by-φ
	// slack split only the decomposed rate tells neighbouring runs apart.
	byPhi := paletteServer(200, 8, 5)
	for i := range byPhi.Sessions {
		byPhi.Sessions[i].Arrival = byPhi.Sessions[0].Arrival
	}
	pops = append(pops, population{name: "phi-only types", srv: byPhi, split: SplitByPhi})
	// Types that share ρ and φ — equal ratios, so the index tie-break
	// interleaves them — and differ only in Λ or α.
	shape := paletteServer(200, 1, 6)
	for i := range shape.Sessions {
		switch i % 3 {
		case 1:
			shape.Sessions[i].Arrival.Lambda *= 1.5
		case 2:
			shape.Sessions[i].Arrival.Alpha *= 1.5
		}
	}
	pops = append(pops, population{name: "lambda/alpha-only types", srv: shape})

	midRun := 0
	for _, p := range pops {
		rates, err := p.srv.DecomposedRates(p.split, 1)
		if err != nil {
			t.Fatal(err)
		}
		ord, err := p.srv.FeasibleOrdering(rates)
		if err != nil {
			t.Fatal(err)
		}
		m := p.srv.newOrderingMemo(ord, rates)
		n := len(ord)
		sample := map[int]bool{0: true, 1: true, n / 2: true, n - 1: true}
		for _, independent := range []bool{true, false} {
			for _, mode := range []XiMode{XiOne, XiOptimal} {
				for pos := range ord {
					tag := fmt.Sprintf("%s independent=%v mode=%v pos=%d", p.name, independent, mode, pos)
					got, want, ref := orderingBoundsWithRef(t, m, pos, independent, mode)
					for _, theta := range runProbe(got.ThetaMax) {
						v := got.Prefactor(theta)
						w, at := ref(theta)
						if !sameBits(v, w) {
							t.Fatalf("%s θ=%v: prefactor %v, per-term reference %v", tag, theta, v, w)
						}
						if at > 0 && m.sameTerm(ord[at-1], ord[at]) {
							midRun++
						}
					}
					if sample[pos] {
						compareTails(t, tag, got, want)
					}
				}
			}
		}
	}
	if midRun == 0 {
		t.Fatal("no probe overflowed in the middle of a run; the early-exit case went untested")
	}
	t.Logf("%d probes overflowed in the middle of a run", midRun)
}

// TestOrderingRunsTable checks the run table directly: runs are maximal
// blocks of consecutive positions with identical terms.
func TestOrderingRunsTable(t *testing.T) {
	for _, types := range []int{1, 2, 64, 0} {
		srv := paletteServer(300, types, uint64(7+types))
		rates, err := srv.DecomposedRates(SplitEqual, 1)
		if err != nil {
			t.Fatal(err)
		}
		ord, err := srv.FeasibleOrdering(rates)
		if err != nil {
			t.Fatal(err)
		}
		m := srv.newOrderingMemo(ord, rates)
		ends := m.runEnds()
		runs := 0
		for pos := 0; pos < len(ord); pos = int(ends[pos]) {
			end := int(ends[pos])
			runs++
			for k := pos; k < end; k++ {
				if int(ends[k]) != end || !m.sameTerm(ord[pos], ord[k]) {
					t.Fatalf("types=%d: position %d in run [%d,%d) has end %d", types, k, pos, end, ends[k])
				}
			}
			if end < len(ord) && m.sameTerm(ord[end-1], ord[end]) {
				t.Fatalf("types=%d: run [%d,%d) is not maximal", types, pos, end)
			}
		}
		want := types
		if types == 0 {
			want = len(ord)
		}
		if runs > want {
			t.Fatalf("types=%d: %d runs, want at most one per type (%d)", types, runs, want)
		}
	}
}

// TestOrderingRunsConcurrentReaders has many goroutines evaluate one
// lazily built analysis's ordering bounds at once, so the first
// evaluations race to build the shared run table; every value must match
// a separately built analysis of the same server.
func TestOrderingRunsConcurrentReaders(t *testing.T) {
	srv := paletteServer(160, 16, 99)
	for _, independent := range []bool{true, false} {
		opts := Options{Independent: independent, Xi: XiOptimal}
		d, err := NewDeltaAnalyzer(srv, opts)
		if err != nil {
			t.Fatal(err)
		}
		lazy := d.Analysis()
		eager, err := AnalyzeServer(srv, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, len(srv.Sessions))
		for i := range want {
			want[i] = eager.OrderingBound(i).DelayTail(2)
		}
		const workers = 8
		var wg sync.WaitGroup
		errs := make(chan string, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for k := 0; k < len(want)/2; k++ {
					i := (k*workers + w*37) % len(want)
					if got := lazy.OrderingBound(i).DelayTail(2); !sameBits(got, want[i]) {
						errs <- fmt.Sprintf("independent=%v session %d: %v, want %v", independent, i, got, want[i])
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
	}
}

// FuzzOrderingPrefactor decodes a small population (type count, each
// session's type, ξ mode, theorem, θ fraction) and compares the run
// kernel's prefactor with the per-term reference at every position.
func FuzzOrderingPrefactor(f *testing.F) {
	f.Add([]byte{0x00, 0x20, 0x00, 0x80, 1, 2, 3})
	f.Add([]byte{0x3f, 0x3f, 0x03, 0x01, 0, 0, 0, 0, 1, 1})
	f.Add([]byte{0x01, 0x10, 0x02, 0xff, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		types := int(data[0] % 65) // 0: all distinct
		n := 1 + int(data[1]%64)
		independent := data[2]&1 == 0
		mode := XiOne
		if data[2]&2 != 0 {
			mode = XiOptimal
		}
		frac := (float64(data[3]) + 0.5) / 256
		rest := data[4:]
		srv := paletteServer(n, types, 1)
		if types > 0 && len(rest) > 0 {
			// Reassign types from the input so the fuzzer shapes the runs.
			palette := paletteServer(types, 0, uint64(types))
			srv.Sessions = srv.Sessions[:0]
			total := 0.0
			for i := 0; i < n; i++ {
				s := palette.Sessions[int(rest[i%len(rest)])%types]
				srv.Sessions = append(srv.Sessions, s)
				total += s.Arrival.Rho
			}
			srv.Rate = total / 0.9
		}
		rates, err := srv.DecomposedRates(SplitEqual, 1)
		if err != nil {
			t.Fatal(err)
		}
		ord, err := srv.FeasibleOrdering(rates)
		if err != nil {
			t.Fatal(err)
		}
		m := srv.newOrderingMemo(ord, rates)
		for pos := range ord {
			got, _, ref := orderingBoundsWithRef(t, m, pos, independent, mode)
			for _, theta := range []float64{frac * got.ThetaMax, frac * frac * frac * got.ThetaMax * 1e-6} {
				v := got.Prefactor(theta)
				w, _ := ref(theta)
				if !sameBits(v, w) {
					t.Fatalf("pos %d θ=%v: prefactor %v, per-term reference %v", pos, theta, v, w)
				}
			}
		}
	})
}
