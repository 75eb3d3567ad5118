package gpsmath

import (
	"testing"

	"repro/internal/ebb"
)

// TestPartitionMemoMatchesServer drives the exported memo the way the
// network recursion does: every arrival starts as a placeholder, and the
// members of each class receive their final characterization just before
// the class is bounded. Each bound must match, bit for bit, the public
// Theorem 11/12 constructors on a fresh server holding the same arrivals
// at that moment.
func TestPartitionMemoMatchesServer(t *testing.T) {
	for _, n := range []int{1, 3, 8, 33, 129} {
		for seed := uint64(1); seed <= 3; seed++ {
			final := scalingServer(n, seed*104729+uint64(n))
			part, err := final.FeasiblePartition()
			if err != nil {
				t.Fatalf("n=%d: FeasiblePartition: %v", n, err)
			}
			for _, mode := range []XiMode{XiOne, XiOptimal} {
				live := Server{Rate: final.Rate, Sessions: append([]Session(nil), final.Sessions...)}
				for j := range live.Sessions {
					live.Sessions[j].Arrival = ebb.Process{Rho: final.Sessions[j].Arrival.Rho, Lambda: 1, Alpha: 1}
				}
				memo11 := live.NewPartitionMemo(part)
				memo12 := live.NewPartitionMemo(part)
				for _, class := range part.Classes {
					for _, i := range class {
						live.Sessions[i].Arrival = final.Sessions[i].Arrival
					}
					fresh := Server{Rate: live.Rate, Sessions: append([]Session(nil), live.Sessions...)}
					for _, i := range class {
						var got SessionBounds
						if err := memo11.Theorem11Into(&got, i, mode); err != nil {
							t.Fatalf("n=%d i=%d: Theorem11Into: %v", n, i, err)
						}
						want, err := fresh.Theorem11(part, i, mode)
						if err != nil {
							t.Fatalf("n=%d i=%d: Theorem11: %v", n, i, err)
						}
						compareFamilies(t, "thm11", n, i, &got, want)

						if err := memo12.Theorem12Into(&got, i, mode); err != nil {
							t.Fatalf("n=%d i=%d: Theorem12Into: %v", n, i, err)
						}
						if want, err = fresh.Theorem12(part, i, nil, mode); err != nil {
							t.Fatalf("n=%d i=%d: Theorem12: %v", n, i, err)
						}
						compareFamilies(t, "thm12", n, i, &got, want)
					}
				}
			}
		}
	}
	var sb SessionBounds
	memo := scalingServer(4, 1).NewPartitionMemo(Partition{Classes: [][]int{{0, 1, 2, 3}}, ClassOf: []int{0, 0, 0, 0}})
	if err := memo.Theorem11Into(&sb, 4, XiOne); err == nil {
		t.Error("Theorem11Into out of range: want error")
	}
	if err := memo.Theorem12Into(&sb, -1, XiOne); err == nil {
		t.Error("Theorem12Into out of range: want error")
	}
}

func compareFamilies(t *testing.T, thm string, n, i int, got, want *SessionBounds) {
	t.Helper()
	if got.Name != want.Name || got.Index != want.Index || got.Theorem != want.Theorem ||
		!sameBits(got.G, want.G) || !sameBits(got.Rho, want.Rho) || !sameBits(got.ThetaMax, want.ThetaMax) {
		t.Fatalf("n=%d i=%d %s: header %+v, want %+v", n, i, thm, *got, *want)
	}
	for _, theta := range thetaProbe(got.ThetaMax) {
		if a, b := got.Prefactor(theta), want.Prefactor(theta); !sameBits(a, b) {
			t.Fatalf("n=%d i=%d %s θ=%v: prefactor %v, want %v", n, i, thm, theta, a, b)
		}
	}
}
