// Package network implements the GPS-network analysis of the paper's §6:
// validation of the stability condition, Rate Proportional Processor
// Sharing (RPPS) closed-form end-to-end bounds (Theorem 15), Consistent
// Relative Session Treatment (CRST) detection, and the recursive per-node
// bound propagation that proves Theorem 13.
package network

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/ebb"
)

// Node is one GPS server in the network.
type Node struct {
	Name string
	Rate float64
}

// Session is one end-to-end session: an E.B.B.-characterized source
// entering at Route[0] and traversing Route in order, with GPS weight
// Phi[k] at hop k.
type Session struct {
	Name    string
	Arrival ebb.Process
	Route   []int
	Phi     []float64
}

// Network is the full model.
type Network struct {
	Nodes    []Node
	Sessions []Session
}

// Validate checks structural sanity and the per-node stability condition
// Σ_{i∈I(m)} ρ_i < r^m. Session long-term rates are preserved by GPS
// nodes (paper eq. 25: the departure process has the same ρ), so the
// entry ρ is the right per-node load at every hop.
func (n Network) Validate() error {
	if len(n.Nodes) == 0 {
		return errors.New("network: no nodes")
	}
	if len(n.Sessions) == 0 {
		return errors.New("network: no sessions")
	}
	for m, node := range n.Nodes {
		if !(node.Rate > 0) || math.IsInf(node.Rate, 1) || math.IsNaN(node.Rate) {
			return fmt.Errorf("network: node %d (%s) rate = %v", m, node.Name, node.Rate)
		}
	}
	load := make([]float64, len(n.Nodes))
	lastVisit := make([]int, len(n.Nodes)) // 1 + the last session seen at each node
	for i, s := range n.Sessions {
		if err := s.Arrival.Validate(); err != nil {
			return fmt.Errorf("network: session %d (%s): %w", i, s.Name, err)
		}
		if len(s.Route) == 0 {
			return fmt.Errorf("network: session %d (%s) has an empty route", i, s.Name)
		}
		if len(s.Phi) != len(s.Route) {
			return fmt.Errorf("network: session %d (%s): %d weights for %d hops", i, s.Name, len(s.Phi), len(s.Route))
		}
		for k, m := range s.Route {
			if m < 0 || m >= len(n.Nodes) {
				return fmt.Errorf("network: session %d (%s): hop %d references node %d", i, s.Name, k, m)
			}
			if lastVisit[m] == i+1 {
				return fmt.Errorf("network: session %d (%s) visits node %d twice", i, s.Name, m)
			}
			lastVisit[m] = i + 1
			if !(s.Phi[k] > 0) {
				return fmt.Errorf("network: session %d (%s): phi[%d] = %v", i, s.Name, k, s.Phi[k])
			}
			load[m] += s.Arrival.Rho
		}
	}
	for m, l := range load {
		if l >= n.Nodes[m].Rate {
			return fmt.Errorf("network: node %d (%s) overloaded: sum rho = %v >= rate %v", m, n.Nodes[m].Name, l, n.Nodes[m].Rate)
		}
	}
	return nil
}

// SessionsAt returns the indices of sessions visiting node m, each with
// the hop index at which they visit it.
func (n Network) SessionsAt(m int) (sessions []int, hops []int) {
	for i, s := range n.Sessions {
		for k, node := range s.Route {
			if node == m {
				sessions = append(sessions, i)
				hops = append(hops, k)
			}
		}
	}
	return sessions, hops
}

// phiSums returns Σ_{j∈I(m)} φ_j^m for every node m, each summed in
// session-index order — the fold every guaranteed rate in this package
// divides by, so one O(Σ route lengths) pass serves all of a network's
// sessions and hops. Hops naming a node outside the network are left to
// Validate.
func (n Network) phiSums() []float64 {
	sums := make([]float64, len(n.Nodes))
	for _, s := range n.Sessions {
		for k, m := range s.Route {
			if m >= 0 && m < len(sums) {
				sums[m] += s.Phi[k]
			}
		}
	}
	return sums
}

// rateAt is g_i^m at session i's given hop from precomputed phiSums.
func (n Network) rateAt(i, hop int, phiSum []float64) float64 {
	s := n.Sessions[i]
	m := s.Route[hop]
	return s.Phi[hop] / phiSum[m] * n.Nodes[m].Rate
}

// GuaranteedRate returns g_i^m for session i at its k-th hop:
// φ_i^m / Σ_{j∈I(m)} φ_j^m · r^m (paper eq. 60).
func (n Network) GuaranteedRate(i, hop int) float64 {
	return n.rateAt(i, hop, n.phiSums())
}

// GNet returns g_i^net = min over the route of the per-node guaranteed
// rates — the bottleneck clearing rate of Theorem 15.
func (n Network) GNet(i int) float64 {
	g, _ := n.bottleneck(i, n.phiSums())
	return g
}

// Bottleneck returns the hop index achieving GNet.
func (n Network) Bottleneck(i int) int {
	_, k := n.bottleneck(i, n.phiSums())
	return k
}

// bottleneck returns session i's smallest per-hop guaranteed rate and
// the first hop achieving it.
func (n Network) bottleneck(i int, phiSum []float64) (g float64, hop int) {
	g = math.Inf(1)
	for k := range n.Sessions[i].Route {
		if v := n.rateAt(i, k, phiSum); v < g {
			g, hop = v, k
		}
	}
	return g, hop
}

// IsRPPS reports whether the assignment is rate proportional at every
// node (φ_i^m = c_m·ρ_i for some per-node constant; the paper uses
// φ_i^m = ρ_i, and any per-node scaling yields the same GPS behavior).
func (n Network) IsRPPS() bool {
	for m := range n.Nodes {
		sessions, hops := n.SessionsAt(m)
		if len(sessions) == 0 {
			continue
		}
		ref := n.Sessions[sessions[0]].Phi[hops[0]] / n.Sessions[sessions[0]].Arrival.Rho
		for t := 1; t < len(sessions); t++ {
			r := n.Sessions[sessions[t]].Phi[hops[t]] / n.Sessions[sessions[t]].Arrival.Rho
			if math.Abs(r-ref) > 1e-9*ref {
				return false
			}
		}
	}
	return true
}
