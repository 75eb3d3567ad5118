package network

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/ebb"
	"repro/internal/gpsmath"
)

// Weight assignments for generated networks.
const (
	phiRPPS    = iota // φ = ρ at every hop: one local class per node
	phiSession        // φ = ρ·w_i, one w_i per session: CRST with several local classes
	phiHop            // φ = ρ·w per hop: several local classes, often not CRST
	phiModes
)

// Generated topologies.
const (
	shapeChain = iota // sessions on contiguous stretches of an H-node line
	shapeTree         // leaf-to-root routes up a tree of the given depth
	shapeRing         // clockwise stretches of a ring
	shapes
)

var weightSet = []float64{0.25, 0.5, 1, 2, 4}

// genNetwork builds a seeded stable network: nSess sessions over one of
// the shapes above with routes of up to maxHops hops, E.B.B. sources with
// spread Λ and α, and ρ scaled so that the busiest node runs at 90% of its
// rate.
func genNetwork(rng *rand.Rand, shape, nSess, maxHops, phiMode int) Network {
	var net Network
	var routes [][]int
	switch shape {
	case shapeChain:
		h := maxHops
		for m := 0; m < h; m++ {
			net.Nodes = append(net.Nodes, Node{Name: fmt.Sprintf("c%d", m), Rate: 1 + rng.Float64()})
		}
		for i := 0; i < nSess; i++ {
			a, b := 0, h // every fourth session runs the whole line
			if i%4 != 0 {
				a = rng.IntN(h)
				b = a + 1 + rng.IntN(h-a)
			}
			var r []int
			for m := a; m < b; m++ {
				r = append(r, m)
			}
			routes = append(routes, r)
		}
	case shapeTree:
		depth := 1 + (maxHops-1)%4 // root at level 0, leaves at level depth-1
		fan := 2 + rng.IntN(2)
		parent := []int{-1}
		level := []int{0}
		for m := 0; m < len(parent); m++ {
			if level[m] == depth-1 {
				continue
			}
			for c := 0; c < fan; c++ {
				parent = append(parent, m)
				level = append(level, level[m]+1)
			}
		}
		for m := range parent {
			net.Nodes = append(net.Nodes, Node{Name: fmt.Sprintf("t%d", m), Rate: 1 + rng.Float64()})
		}
		for i := 0; i < nSess; i++ {
			var r []int
			stop := -1
			if rng.IntN(3) == 0 {
				stop = rng.IntN(len(parent)) // may leave the route short of the root
			}
			for m := len(parent) - 1 - rng.IntN(len(parent)); m >= 0; m = parent[m] {
				r = append(r, m)
				if m == stop {
					break
				}
			}
			routes = append(routes, r)
		}
	case shapeRing:
		size := 3 + rng.IntN(6)
		for m := 0; m < size; m++ {
			net.Nodes = append(net.Nodes, Node{Name: fmt.Sprintf("r%d", m), Rate: 1 + rng.Float64()})
		}
		for i := 0; i < nSess; i++ {
			start, hops := rng.IntN(size), 1+rng.IntN(min(maxHops, size))
			var r []int
			for k := 0; k < hops; k++ {
				r = append(r, (start+k)%size)
			}
			routes = append(routes, r)
		}
	}
	load := make([]float64, len(net.Nodes))
	for i, r := range routes {
		rho := 0.2 + rng.Float64()
		w := weightSet[rng.IntN(len(weightSet))]
		s := Session{
			Name:    fmt.Sprintf("s%d", i),
			Arrival: ebb.Process{Rho: rho, Lambda: 0.5 + rng.Float64(), Alpha: 0.5 + 4.5*rng.Float64()},
			Route:   r,
		}
		for _, m := range r {
			load[m] += rho
			switch phiMode {
			case phiRPPS:
				s.Phi = append(s.Phi, rho)
			case phiSession:
				s.Phi = append(s.Phi, rho*w)
			default:
				s.Phi = append(s.Phi, rho*weightSet[rng.IntN(len(weightSet))])
			}
		}
		net.Sessions = append(net.Sessions, s)
	}
	scale := math.Inf(1)
	for m, l := range load {
		if l > 0 {
			scale = math.Min(scale, 0.9*net.Nodes[m].Rate/l)
		}
	}
	for i := range net.Sessions {
		s := &net.Sessions[i]
		s.Arrival.Rho *= scale
		for k := range s.Phi {
			s.Phi[k] *= scale
		}
	}
	return net
}

// withConflict appends two sessions that impede each other in opposite
// directions at nodes 0 and 1 (favored at one, starved at the other), so
// the network cannot be CRST whatever the rest of it looks like. Their
// load is carved out of the existing sessions' headroom.
func withConflict(net Network) Network {
	for len(net.Nodes) < 2 {
		net.Nodes = append(net.Nodes, Node{Name: "extra", Rate: 1})
	}
	for i := range net.Sessions {
		s := &net.Sessions[i]
		s.Arrival.Rho *= 0.5
		for k := range s.Phi {
			s.Phi[k] *= 0.5
		}
	}
	rate := math.Min(net.Nodes[0].Rate, net.Nodes[1].Rate)
	arr := ebb.Process{Rho: 0.2 * rate, Lambda: 1, Alpha: 1.5}
	heavy, light := 1e3, 1e-3
	net.Sessions = append(net.Sessions,
		Session{Name: "conflict-a", Arrival: arr, Route: []int{0, 1}, Phi: []float64{heavy, light}},
		Session{Name: "conflict-b", Arrival: arr, Route: []int{1, 0}, Phi: []float64{heavy, light}},
	)
	return net
}

// errClass names what kind of failure an analysis reported.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrNotCRST):
		return "not-crst"
	default:
		return err.Error()
	}
}

// checkMatchesReference requires AnalyzeCRST and CRSTClasses to agree
// with the reference implementation exactly: the same error class
// (the same message for anything but ErrNotCRST), the same global
// classes and, for every session and hop, every HopBound field equal in
// Float64bits. It returns the analysis, nil if both failed.
func checkMatchesReference(t testing.TB, label string, net Network, opts CRSTOptions) *CRSTAnalysis {
	t.Helper()
	classes, classOf, err := net.CRSTClasses()
	wantClasses, wantClassOf, wantErr := net.crstClassesReference()
	if errClass(err) != errClass(wantErr) {
		t.Fatalf("%s: CRSTClasses err %v, reference %v", label, err, wantErr)
	}
	if !reflect.DeepEqual(classes, wantClasses) || !reflect.DeepEqual(classOf, wantClassOf) {
		t.Fatalf("%s: CRSTClasses %v / %v, reference %v / %v", label, classes, classOf, wantClasses, wantClassOf)
	}

	got, err := net.AnalyzeCRST(opts)
	want, wantErr := net.analyzeCRSTReference(opts)
	if errClass(err) != errClass(wantErr) {
		t.Fatalf("%s %+v: AnalyzeCRST err %v, reference %v", label, opts, err, wantErr)
	}
	if err != nil {
		return nil
	}
	if !reflect.DeepEqual(got.Classes, want.Classes) || !reflect.DeepEqual(got.ClassOf, want.ClassOf) {
		t.Fatalf("%s: classes %v / %v, reference %v / %v", label, got.Classes, got.ClassOf, want.Classes, want.ClassOf)
	}
	if len(got.Hops) != len(want.Hops) {
		t.Fatalf("%s: %d sessions, reference %d", label, len(got.Hops), len(want.Hops))
	}
	for i := range want.Hops {
		if len(got.Hops[i]) != len(want.Hops[i]) {
			t.Fatalf("%s: session %d has %d hops, reference %d", label, i, len(got.Hops[i]), len(want.Hops[i]))
		}
		for k, w := range want.Hops[i] {
			g := got.Hops[i][k]
			if g.Node != w.Node || !sameHopBits(g, w) {
				t.Fatalf("%s %+v: session %d hop %d: %+v, reference %+v", label, opts, i, k, g, w)
			}
		}
	}
	return got
}

func sameHopBits(a, b HopBound) bool {
	fa := []float64{a.G, a.Theta, a.Backlog.Prefactor, a.Backlog.Rate, a.Delay.Prefactor, a.Delay.Rate,
		a.Output.Rho, a.Output.Lambda, a.Output.Alpha}
	fb := []float64{b.G, b.Theta, b.Backlog.Prefactor, b.Backlog.Rate, b.Delay.Prefactor, b.Delay.Rate,
		b.Output.Rho, b.Output.Lambda, b.Output.Alpha}
	for j := range fa {
		if math.Float64bits(fa[j]) != math.Float64bits(fb[j]) {
			return false
		}
	}
	return true
}

var thetaFractions = []float64{0, 0.2, 0.5, 0.85, 0.95}

// TestAnalyzeCRSTMatchesReference is the differential pin on the per-node
// memoized analysis: seeded chains (up to 63 hops), trees and rings under
// RPPS, per-session and per-hop weights, every Independent/XiMode pair
// and every θ fraction above, plus rings with a built-in conflict that
// must fail with ErrNotCRST in both implementations. walcheck, gpsdload
// -topology and perfbench all check the coordinator against AnalyzeCRST
// itself, so this test and FuzzAnalyzeCRST are the only independent
// check that the fast path computes what the paper's recursion does.
func TestAnalyzeCRSTMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 1994))
	// Analyses that succeeded: all, with several global classes, and
	// with a 63-hop route.
	analyzed, multiClass, longPath := 0, 0, 0
	run := func(label string, net Network) {
		for _, ind := range []bool{false, true} {
			for _, xi := range []gpsmath.XiMode{gpsmath.XiOne, gpsmath.XiOptimal} {
				for _, tf := range thetaFractions {
					a := checkMatchesReference(t, label, net, CRSTOptions{Independent: ind, Xi: xi, ThetaFraction: tf})
					if a == nil {
						continue
					}
					analyzed++
					if len(a.Classes) > 1 {
						multiClass++
					}
					for _, hops := range a.Hops {
						if len(hops) == 63 {
							longPath++
							break
						}
					}
				}
			}
		}
	}
	for _, h := range []int{2, 3, 8, 17, 63} {
		for phi := 0; phi < phiModes; phi++ {
			run(fmt.Sprintf("chain H=%d phi=%d", h, phi), genNetwork(rng, shapeChain, 6+rng.IntN(20), h, phi))
		}
	}
	for rep := 0; rep < 6; rep++ {
		for phi := 0; phi < phiModes; phi++ {
			run(fmt.Sprintf("tree rep=%d phi=%d", rep, phi), genNetwork(rng, shapeTree, 8+rng.IntN(40), 1+rep, phi))
			run(fmt.Sprintf("ring rep=%d phi=%d", rep, phi), genNetwork(rng, shapeRing, 5+rng.IntN(25), 2+rep, phi))
		}
	}
	for rep := 0; rep < 8; rep++ {
		net := withConflict(genNetwork(rng, shapeRing, 4+rng.IntN(12), 3, rep%phiModes))
		if _, _, err := net.crstClassesReference(); !errors.Is(err, ErrNotCRST) {
			t.Fatalf("conflict ring %d: reference err = %v, want ErrNotCRST", rep, err)
		}
		if _, err := net.AnalyzeCRST(CRSTOptions{}); !errors.Is(err, ErrNotCRST) {
			t.Fatalf("conflict ring %d: AnalyzeCRST err = %v, want ErrNotCRST", rep, err)
		}
		run(fmt.Sprintf("conflict ring %d", rep), net)
	}
	// The generator must actually reach the regimes the test is about.
	t.Logf("%d analyses compared: %d with several global classes, %d with a 63-hop route", analyzed, multiClass, longPath)
	if analyzed < 500 || multiClass < 100 || longPath < 10 {
		t.Fatalf("only %d analyses, %d multi-class, %d over 63 hops: the differential is not exercising the recursion", analyzed, multiClass, longPath)
	}
}

// FuzzAnalyzeCRST runs the same differential on fuzzer-chosen networks.
func FuzzAnalyzeCRST(f *testing.F) {
	f.Add(uint64(1), uint8(shapeChain), uint8(12), uint8(63), uint8(phiSession), uint8(0))
	f.Add(uint64(2), uint8(shapeTree), uint8(30), uint8(3), uint8(phiRPPS), uint8(3))
	f.Add(uint64(3), uint8(shapeRing), uint8(9), uint8(4), uint8(phiHop), uint8(5))
	f.Add(uint64(4), uint8(shapeRing), uint8(6), uint8(3), uint8(phiSession|4), uint8(6))
	f.Fuzz(func(t *testing.T, seed uint64, shape, nSess, hops, phi, flags uint8) {
		rng := rand.New(rand.NewPCG(seed, uint64(shape)))
		net := genNetwork(rng, int(shape)%shapes, 1+int(nSess)%40, 2+int(hops)%62, int(phi&3)%phiModes)
		if phi&4 != 0 {
			net = withConflict(net)
		}
		opts := CRSTOptions{
			Independent:   flags&1 != 0,
			Xi:            gpsmath.XiMode(flags >> 1 & 1),
			ThetaFraction: thetaFractions[int(flags>>2)%len(thetaFractions)],
		}
		checkMatchesReference(t, fmt.Sprintf("seed=%d", seed), net, opts)
	})
}

// TestRPPSBoundsMatchPerSession pins the shared-Σφ RPPSBounds pass to
// per-session RPPSBound and the bottleneck rate to fresh per-hop Σφ
// scans, bit for bit, for every bound variant.
func TestRPPSBoundsMatchPerSession(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 66))
	for rep := 0; rep < 12; rep++ {
		net := genNetwork(rng, rep%shapes, 5+rng.IntN(60), 2+rng.IntN(10), phiRPPS)
		for _, v := range []BoundVariant{VariantDiscrete, VariantContinuousXi1, VariantContinuousOptXi} {
			all, err := net.RPPSBounds(v)
			if err != nil {
				t.Fatalf("rep %d %v: RPPSBounds: %v", rep, v, err)
			}
			for i, got := range all {
				want, err := net.RPPSBound(i, v)
				if err != nil {
					t.Fatalf("rep %d %v session %d: RPPSBound: %v", rep, v, i, err)
				}
				bits := func(b NetBounds) [5]uint64 {
					return [5]uint64{math.Float64bits(b.GNet), math.Float64bits(b.Backlog.Prefactor),
						math.Float64bits(b.Backlog.Rate), math.Float64bits(b.Delay.Prefactor), math.Float64bits(b.Delay.Rate)}
				}
				if got.Session != want.Session || bits(got) != bits(want) {
					t.Fatalf("rep %d %v session %d: RPPSBounds %+v, RPPSBound %+v", rep, v, i, got, want)
				}
				if ref := net.gNetReference(i); math.Float64bits(got.GNet) != math.Float64bits(ref) {
					t.Fatalf("rep %d session %d: GNet %v, per-hop scan %v", rep, i, got.GNet, ref)
				}
			}
		}
		for i := range net.Sessions {
			for k := range net.Sessions[i].Route {
				if g, ref := net.GuaranteedRate(i, k), net.guaranteedRateReference(i, k); math.Float64bits(g) != math.Float64bits(ref) {
					t.Fatalf("rep %d session %d hop %d: GuaranteedRate %v, reference %v", rep, i, k, g, ref)
				}
			}
		}
	}
}
