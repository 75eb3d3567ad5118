package network

import (
	"fmt"
	"math"

	"repro/internal/ebb"
	"repro/internal/gpsmath"
	"repro/internal/numeric"
)

// This file keeps the original Theorem 13 recursion as the test-only
// reference for AnalyzeCRST. It rebuilds each node's session list, Σφ,
// feasible partition and partition memo once per (session, hop) pair,
// and CRSTClasses adds one precedence edge per ordered session pair at
// every node: O(N² log N) per analysis, but every step is the paper's
// definition read literally. The production path (crst.go) builds those
// tables once per node and must reproduce this code's bounds bit for
// bit. The walcheck offline fold, gpsdload -topology and perfbench all
// compare the coordinator against AnalyzeCRST itself, so the
// differential and fuzz tests against this file are the only
// independent pin on that output.

// totalPhiAtReference returns Σ φ_j over sessions present at node m.
func (n Network) totalPhiAtReference(m int) float64 {
	total := 0.0
	for _, s := range n.Sessions {
		for k, node := range s.Route {
			if node == m {
				total += s.Phi[k]
			}
		}
	}
	return total
}

// guaranteedRateReference is g_i^m from one fresh Σφ scan.
func (n Network) guaranteedRateReference(i, hop int) float64 {
	s := n.Sessions[i]
	m := s.Route[hop]
	return s.Phi[hop] / n.totalPhiAtReference(m) * n.Nodes[m].Rate
}

// localPartitionsReference computes every node's feasible partition.
// classAt[m][t] is the local class of the t-th session present at node
// m, aligned with SessionsAt(m).
func (n Network) localPartitionsReference() (classAt [][]int, err error) {
	classAt = make([][]int, len(n.Nodes))
	for m := range n.Nodes {
		sessions, hops := n.SessionsAt(m)
		if len(sessions) == 0 {
			continue
		}
		srv := gpsmath.Server{Rate: n.Nodes[m].Rate}
		for t, i := range sessions {
			srv.Sessions = append(srv.Sessions, gpsmath.Session{
				Name: n.Sessions[i].Name,
				Phi:  n.Sessions[i].Phi[hops[t]],
				// Placeholder Λ/α: the partition only reads ρ and φ.
				Arrival: ebb.Process{Rho: n.Sessions[i].Arrival.Rho, Lambda: 1, Alpha: 1},
			})
		}
		part, err := srv.FeasiblePartition()
		if err != nil {
			return nil, fmt.Errorf("network: node %d (%s): %w", m, n.Nodes[m].Name, err)
		}
		classAt[m] = part.ClassOf
	}
	return classAt, nil
}

// crstClassesReference assigns global classes by longest-path depth in
// the session-pair precedence DAG.
func (n Network) crstClassesReference() (classes [][]int, classOf []int, err error) {
	classAt, err := n.localPartitionsReference()
	if err != nil {
		return nil, nil, err
	}
	nSess := len(n.Sessions)
	adj := make([][]int, nSess) // edge j→i: global(j) must be < global(i)
	for m := range n.Nodes {
		sessions, _ := n.SessionsAt(m)
		for a, i := range sessions {
			for b, j := range sessions {
				if classAt[m][b] < classAt[m][a] {
					adj[j] = append(adj[j], i)
				}
			}
		}
	}
	const (
		unvisited = 0
		inStack   = 1
		done      = 2
	)
	state := make([]int, nSess)
	level := make([]int, nSess)
	var visit func(v int) error
	visit = func(v int) error {
		state[v] = inStack
		lvl := 0
		for _, w := range adj[v] {
			switch state[w] {
			case inStack:
				return fmt.Errorf("%w: sessions %s and %s impede each other cyclically",
					ErrNotCRST, n.Sessions[v].Name, n.Sessions[w].Name)
			case unvisited:
				if err := visit(w); err != nil {
					return err
				}
			}
			if level[w]+1 > lvl {
				lvl = level[w] + 1
			}
		}
		level[v] = lvl
		state[v] = done
		return nil
	}
	for v := 0; v < nSess; v++ {
		if state[v] == unvisited {
			if err := visit(v); err != nil {
				return nil, nil, err
			}
		}
	}
	maxLvl := 0
	for _, l := range level {
		if l > maxLvl {
			maxLvl = l
		}
	}
	classOf = make([]int, nSess)
	classes = make([][]int, maxLvl+1)
	for v, l := range level {
		c := maxLvl - l
		classOf[v] = c
		classes[c] = append(classes[c], v)
	}
	out := classes[:0]
	remap := make([]int, len(classes))
	for c, members := range classes {
		if len(members) == 0 {
			remap[c] = -1
			continue
		}
		remap[c] = len(out)
		out = append(out, members)
	}
	for v := range classOf {
		classOf[v] = remap[classOf[v]]
	}
	return out, classOf, nil
}

// analyzeCRSTReference is the original AnalyzeCRST.
func (n Network) analyzeCRSTReference(opts CRSTOptions) (*CRSTAnalysis, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	if opts.ThetaFraction == 0 {
		opts.ThetaFraction = 0.5
	}
	if opts.ThetaFraction <= 0 || opts.ThetaFraction >= 1 {
		return nil, fmt.Errorf("network: theta fraction = %v, want in (0,1)", opts.ThetaFraction)
	}
	classes, classOf, err := n.crstClassesReference()
	if err != nil {
		return nil, err
	}
	a := &CRSTAnalysis{Classes: classes, ClassOf: classOf, Hops: make([][]HopBound, len(n.Sessions))}

	// inputs[i][k]: session i's E.B.B. characterization entering hop k.
	inputs := make([][]ebb.Process, len(n.Sessions))
	known := make([][]bool, len(n.Sessions))
	for i, s := range n.Sessions {
		inputs[i] = make([]ebb.Process, len(s.Route))
		known[i] = make([]bool, len(s.Route))
		inputs[i][0] = s.Arrival
		known[i][0] = true
		a.Hops[i] = make([]HopBound, len(s.Route))
	}

	for _, class := range classes {
		for _, i := range class {
			for k := range n.Sessions[i].Route {
				if !known[i][k] {
					return nil, fmt.Errorf("network: session %s hop %d input not derived — recursion order broken", n.Sessions[i].Name, k)
				}
				hb, out, err := n.hopBoundReference(i, k, inputs, known, opts)
				if err != nil {
					return nil, err
				}
				a.Hops[i][k] = hb
				if k+1 < len(n.Sessions[i].Route) {
					inputs[i][k+1] = out
					known[i][k+1] = true
				}
			}
		}
	}
	return a, nil
}

// hopBoundReference computes session i's bound at hop k from a server
// rebuilt for this one pair.
func (n Network) hopBoundReference(i, k int, inputs [][]ebb.Process, known [][]bool, opts CRSTOptions) (HopBound, ebb.Process, error) {
	m := n.Sessions[i].Route[k]
	sessions, hops := n.SessionsAt(m)
	srv := gpsmath.Server{Rate: n.Nodes[m].Rate}
	localIdx := -1
	for t, j := range sessions {
		arr := ebb.Process{Rho: n.Sessions[j].Arrival.Rho, Lambda: 1, Alpha: 1}
		if known[j][hops[t]] {
			arr = inputs[j][hops[t]]
		}
		if j == i {
			localIdx = t
			arr = inputs[i][k]
		}
		srv.Sessions = append(srv.Sessions, gpsmath.Session{
			Name:    n.Sessions[j].Name,
			Phi:     n.Sessions[j].Phi[hops[t]],
			Arrival: arr,
		})
	}
	part, err := srv.FeasiblePartition()
	if err != nil {
		return HopBound{}, ebb.Process{}, fmt.Errorf("network: node %d: %w", m, err)
	}
	var sb *gpsmath.SessionBounds
	if opts.Independent {
		sb, err = srv.Theorem11(part, localIdx, opts.Xi)
	} else {
		sb, err = srv.Theorem12(part, localIdx, nil, opts.Xi)
	}
	if err != nil {
		return HopBound{}, ebb.Process{}, fmt.Errorf("network: session %s at node %d: %w", n.Sessions[i].Name, m, err)
	}
	theta := opts.ThetaFraction * sb.ThetaMax
	lam := sb.PrefactorAt(theta)
	out, err := sb.OutputEBB(theta)
	if err != nil {
		return HopBound{}, ebb.Process{}, err
	}
	g := n.guaranteedRateReference(i, k)
	return HopBound{
		Node:    m,
		G:       g,
		Theta:   theta,
		Backlog: numeric.ExpTail{Prefactor: lam, Rate: theta},
		Delay:   numeric.ExpTail{Prefactor: lam, Rate: theta * g},
		Output:  out,
	}, out, nil
}

// gNetReference is Theorem 15's bottleneck rate from per-hop scans.
func (n Network) gNetReference(i int) float64 {
	g := math.Inf(1)
	for k := range n.Sessions[i].Route {
		if v := n.guaranteedRateReference(i, k); v < g {
			g = v
		}
	}
	return g
}
