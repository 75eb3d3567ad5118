package network

import (
	"fmt"

	"repro/internal/numeric"
)

// BoundVariant selects which Lemma 5 form backs the Theorem 15 bounds.
type BoundVariant int

const (
	// VariantDiscrete uses the slotted-time Lemma 5 (paper eq. 66):
	// Λ_i^net = Λ_i / (1 - e^{-α_i(g_i^net - ρ_i)}). This is the form
	// behind the paper's Figure 3 and the default for the slotted
	// simulators in this repository.
	VariantDiscrete BoundVariant = iota
	// VariantContinuousXi1 uses continuous-time Lemma 5 at ξ = 1
	// (paper eq. 64 as stated).
	VariantContinuousXi1
	// VariantContinuousOptXi uses continuous-time Lemma 5 with the
	// prefactor-minimizing admissible ξ.
	VariantContinuousOptXi
)

// String implements fmt.Stringer.
func (v BoundVariant) String() string {
	switch v {
	case VariantDiscrete:
		return "discrete"
	case VariantContinuousXi1:
		return "continuous-xi1"
	case VariantContinuousOptXi:
		return "continuous-optxi"
	default:
		return fmt.Sprintf("BoundVariant(%d)", int(v))
	}
}

// NetBounds packages Theorem 15's closed-form end-to-end bounds for one
// session: Pr{Q_i^net >= q} <= Backlog.Eval(q) and
// Pr{D_i^net >= d} <= Delay.Eval(d).
type NetBounds struct {
	Session int
	GNet    float64
	Backlog numeric.ExpTail
	Delay   numeric.ExpTail
}

// RPPSBound computes Theorem 15 (eqs. 62–64 / 66–67) for session i:
//
//	Pr{Q_i^net(t) >= q} <= Λ_i^net e^{-α_i q},
//	Pr{D_i^net(t) >= d} <= Λ_i^net e^{-α_i g_i^net d}.
//
// The bound requires g_i^net > ρ_i, which RPPS plus per-node stability
// guarantees — but as the paper remarks after Theorem 15 it is valid for
// ANY assignment giving session i a bottleneck clearing rate above ρ_i,
// so RPPSBound checks only that condition, not RPPS itself.
func (n Network) RPPSBound(i int, variant BoundVariant) (NetBounds, error) {
	if i < 0 || i >= len(n.Sessions) {
		return NetBounds{}, fmt.Errorf("network: session %d out of range", i)
	}
	return n.rppsBound(i, variant, n.phiSums())
}

// rppsBound is RPPSBound with the per-node Σφ precomputed, so a pass
// over every session costs O(Σ route lengths), not that per session.
func (n Network) rppsBound(i int, variant BoundVariant, phiSum []float64) (NetBounds, error) {
	s := n.Sessions[i]
	g, _ := n.bottleneck(i, phiSum)
	if g <= s.Arrival.Rho {
		return NetBounds{}, fmt.Errorf("network: session %d (%s): bottleneck rate %v <= rho %v", i, s.Name, g, s.Arrival.Rho)
	}
	var tail numeric.ExpTail
	var err error
	switch variant {
	case VariantDiscrete:
		tail, err = s.Arrival.DeltaTailDiscrete(g)
	case VariantContinuousXi1:
		tail, err = s.Arrival.DeltaTailXi(g, 1)
	case VariantContinuousOptXi:
		tail, err = s.Arrival.DeltaTail(g)
	default:
		return NetBounds{}, fmt.Errorf("network: unknown bound variant %v", variant)
	}
	if err != nil {
		return NetBounds{}, err
	}
	return NetBounds{
		Session: i,
		GNet:    g,
		Backlog: tail,
		Delay:   numeric.ExpTail{Prefactor: tail.Prefactor, Rate: tail.Rate * g},
	}, nil
}

// RPPSBounds computes Theorem 15 for every session, failing if the
// assignment leaves any session without bottleneck headroom.
func (n Network) RPPSBounds(variant BoundVariant) ([]NetBounds, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	phiSum := n.phiSums()
	out := make([]NetBounds, len(n.Sessions))
	for i := range n.Sessions {
		b, err := n.rppsBound(i, variant, phiSum)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// NetBoundFromDeltaTail lifts any bound on the dedicated-rate backlog
// δ_i(t) at rate g_i^net into Theorem 15's network bounds: the theorem's
// proof only uses Q_i^net(t) <= δ_i(t) and D_i^net <= δ_i(t)/g_i^net, so
// a sharper δ tail (for example the direct Markov-source bound behind the
// paper's Figure 4) yields sharper network bounds. delta must be the tail
// of δ_i at service rate GNet(i).
func (n Network) NetBoundFromDeltaTail(i int, delta numeric.ExpTail) (NetBounds, error) {
	if i < 0 || i >= len(n.Sessions) {
		return NetBounds{}, fmt.Errorf("network: session %d out of range", i)
	}
	g := n.GNet(i)
	if !delta.Valid() {
		return NetBounds{}, fmt.Errorf("network: invalid delta tail %v", delta)
	}
	return NetBounds{
		Session: i,
		GNet:    g,
		Backlog: delta,
		Delay:   numeric.ExpTail{Prefactor: delta.Prefactor, Rate: delta.Rate * g},
	}, nil
}
