package gpsmath

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/source"
)

// randomBatch draws a mixed batch of admits and releases against the
// mirror population, applying each op to the mirror as it goes. Some
// batches release a session admitted earlier in the same batch, and some
// empty the population (then, sometimes, admit again).
func randomBatch(rng *source.RNG, mirror *[]Session) []DeltaOp {
	var ops []DeltaOp
	release := func(pos int) {
		ops = append(ops, DeltaOp{Release: true, Pos: pos})
		m := *mirror
		last := len(m) - 1
		m[pos] = m[last]
		*mirror = m[:last]
	}
	admit := func() {
		s := churnSession(rng)
		ops = append(ops, DeltaOp{Session: s})
		*mirror = append(*mirror, s)
	}
	if rng.Float64() < 0.1 {
		for len(*mirror) > 0 {
			release(rng.Intn(len(*mirror)))
		}
		for k := rng.Intn(4); k > 0; k-- {
			admit()
		}
		return ops
	}
	justAdmitted := false
	for k := 1 + rng.Intn(24); k > 0; k-- {
		n := len(*mirror)
		switch {
		case justAdmitted && rng.Float64() < 0.3:
			// The last slot holds the session the previous op admitted.
			release(n - 1)
			justAdmitted = false
		case n < 4 || (n < 40 && rng.Float64() < 0.5):
			admit()
			justAdmitted = true
		default:
			release(rng.Intn(n))
			justAdmitted = false
		}
	}
	return ops
}

// TestDeltaAnalyzerBatchMatchesReplay pins DeltaAnalyzer.Apply to the
// per-op replay of the same batch through Admit/Release (one-op
// batches, with a refresh after each) and to a fresh AnalyzeServer, bit
// for bit, across random mixed batches under both
// theorem families; analyses published before a batch must read the
// same afterwards.
func TestDeltaAnalyzerBatchMatchesReplay(t *testing.T) {
	for _, indep := range []bool{true, false} {
		opts := Options{Independent: indep, Xi: XiOptimal}
		rng := source.NewRNG(2027)
		const rate = 30.0
		batch, err := NewDeltaAnalyzer(Server{Rate: rate}, opts)
		if err != nil {
			t.Fatal(err)
		}
		replay, err := NewDeltaAnalyzer(Server{Rate: rate}, opts)
		if err != nil {
			t.Fatal(err)
		}
		var mirror []Session
		emptied := 0
		for step := 0; step < 120; step++ {
			tag := fmt.Sprintf("independent=%v step=%d", indep, step)
			prev := batch.Analysis()
			var prevVals []float64
			if prev != nil {
				for i := range prev.Server.Sessions {
					prevVals = append(prevVals, prev.BestDelayTailValue(i, 4))
				}
			}
			ops := randomBatch(rng, &mirror)
			got, err := batch.Apply(ops)
			if err != nil {
				t.Fatalf("%s: Apply: %v", tag, err)
			}
			var want *Analysis
			for _, op := range ops {
				if op.Release {
					want, err = replay.Release(op.Pos)
				} else {
					want, err = replay.Admit(op.Session)
				}
				if err != nil {
					t.Fatalf("%s: replay: %v", tag, err)
				}
			}
			if batch.Stats().Admits != replay.Stats().Admits || batch.Stats().Releases != replay.Stats().Releases {
				t.Fatalf("%s: stats %+v, replay %+v", tag, batch.Stats(), replay.Stats())
			}
			if batch.Len() != len(mirror) {
				t.Fatalf("%s: %d sessions, mirror %d", tag, batch.Len(), len(mirror))
			}
			for i, v := range prevVals {
				if w := prev.BestDelayTailValue(i, 4); !sameBits(v, w) {
					t.Fatalf("%s: published analysis changed under the batch: session %d %v -> %v", tag, i, v, w)
				}
			}
			if len(mirror) == 0 {
				if got != nil || want != nil {
					t.Fatalf("%s: emptied population left an analysis (batch %v, replay %v)", tag, got != nil, want != nil)
				}
				emptied++
				continue
			}
			fresh, err := AnalyzeServer(Server{Rate: rate, Sessions: mirror}, opts)
			if err != nil {
				t.Fatalf("%s: fresh AnalyzeServer: %v", tag, err)
			}
			compareStructure(t, tag+" batch", got, fresh)
			compareStructure(t, tag+" replay", want, fresh)
			for i := range mirror {
				compareBounds(t, tag+" batch", got, fresh, i)
				for _, d := range []float64{1, 8} {
					if a, b := got.BestDelayTailValue(i, d), want.BestDelayTailValue(i, d); !sameBits(a, b) {
						t.Fatalf("%s: session %d delay tail %v, replay %v", tag, i, a, b)
					}
				}
			}
		}
		if emptied == 0 {
			t.Fatalf("independent=%v: no batch emptied the population", indep)
		}
	}
}

// TestDeltaAnalyzerBatchSeedMatchesNaive pins the O(batch) slot bookkeeping of
// Apply to a naive one that tracks every slot's pre-batch index. The
// refresh result does not depend on the seed, so a wrong rename would
// only cost a full sort; this test is what shows the seed is the
// previous permutation renamed, with released sessions dropped and
// exactly the admitted slots in the fresh block.
func TestDeltaAnalyzerBatchSeedMatchesNaive(t *testing.T) {
	rng := source.NewRNG(77)
	d, err := NewDeltaAnalyzer(Server{Rate: 30}, Options{Independent: true, Xi: XiOptimal})
	if err != nil {
		t.Fatal(err)
	}
	var mirror []Session
	checked := 0
	for step := 0; step < 400; step++ {
		ops := randomBatch(rng, &mirror)
		if an := d.Analysis(); an != nil {
			n0 := d.Len()
			b := deltaBatch{sess: d.sess, ratio: d.pRatio, n0: n0}
			origin := make([]int, n0)
			for k := range origin {
				origin[k] = k
			}
			for _, op := range ops {
				if err := b.apply(op); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if !op.Release {
					origin = append(origin, -1)
					continue
				}
				last := len(origin) - 1
				origin[op.Pos] = origin[last]
				origin = origin[:last]
			}
			n := len(origin)
			wantMoved := map[int]int{}
			slot := make([]int, n0)
			for k := range slot {
				slot[k] = -1
			}
			var wantFresh []int
			for k, o := range origin {
				if k < n0 && o != k {
					wantMoved[k] = o
				}
				if o >= 0 {
					slot[o] = k
				} else {
					wantFresh = append(wantFresh, k)
				}
			}
			if b.moved == nil && len(wantMoved) == 0 {
				wantMoved = nil
			}
			if !reflect.DeepEqual(b.moved, wantMoved) {
				t.Fatalf("step %d: moved %v, want %v", step, b.moved, wantMoved)
			}
			if n > 0 {
				var wantHead []int
				for _, v := range an.Ordering {
					if slot[v] >= 0 {
						wantHead = append(wantHead, slot[v])
					}
				}
				seed, fresh := d.seedOrdering(n0, n, b.moved)
				head, tail := seed[:len(seed)-fresh], slices.Clone(seed[len(seed)-fresh:])
				slices.Sort(tail)
				if !slices.Equal(head, wantHead) || !slices.Equal(tail, wantFresh) {
					t.Fatalf("step %d: seed %v (fresh %d), want head %v fresh %v", step, seed, fresh, wantHead, wantFresh)
				}
				checked++
			}
		}
		if _, err := d.Apply(ops); err != nil {
			t.Fatalf("step %d: Apply: %v", step, err)
		}
	}
	if checked < 300 {
		t.Fatalf("only %d seeds checked", checked)
	}
}

// TestDeltaAnalyzerBatchRejectsAndRollsBack: a batch with an invalid op
// anywhere is refused whole and leaves the analyzer as it was.
func TestDeltaAnalyzerBatchRejectsAndRollsBack(t *testing.T) {
	palette := churnPalette()
	d, err := NewDeltaAnalyzer(Server{Rate: 30, Sessions: palette}, Options{Independent: true})
	if err != nil {
		t.Fatal(err)
	}
	before := d.Analysis()
	bad := palette[0]
	bad.Phi = -1
	for _, ops := range [][]DeltaOp{
		{{Session: palette[1]}, {Release: true, Pos: 0}, {Release: true, Pos: 9}},
		{{Release: true, Pos: 1}, {Session: bad}},
		{{Session: palette[1]}, {Session: palette[1]}, {Session: palette[1]}, {Session: palette[1]},
			{Session: palette[1]}, {Session: palette[1]}, {Session: palette[1]}, {Session: palette[1]},
			{Session: palette[1]}, {Session: palette[1]}, {Session: palette[1]}, {Session: palette[1]},
			{Session: palette[1]}, {Session: palette[1]}, {Session: palette[1]}, {Session: palette[1]},
			{Session: palette[1]}, {Session: palette[1]}, {Session: palette[1]}, {Session: palette[1]},
			{Session: palette[1]}, {Session: palette[1]}, {Session: palette[1]}, {Session: palette[1]}},
	} {
		if _, err := d.Apply(ops); err == nil {
			t.Fatalf("batch %+v accepted", ops)
		}
		if d.Analysis() != before || d.Len() != len(palette) {
			t.Fatalf("refused batch changed the analyzer (len %d)", d.Len())
		}
	}
	if an, err := d.Apply(nil); err != nil || an != before {
		t.Fatalf("empty batch: %v, %v", an == before, err)
	}
}
