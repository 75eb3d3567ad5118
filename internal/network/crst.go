package network

import (
	"errors"
	"fmt"

	"repro/internal/ebb"
	"repro/internal/gpsmath"
	"repro/internal/numeric"
)

// crstTables is one analysis's per-node view of the network, built once
// in O(Σ route lengths + Σ_m N_m log N_m) instead of once per (session,
// hop) pair.
type crstTables struct {
	nodes []crstNode
	// off[i] is where session i's hops start in the flat per-hop arrays;
	// slot[off[i]+k] is the session's position among the sessions present
	// at its k-th node.
	off  []int
	slot []int
}

// crstNode holds what the Theorem 11/12 bounds at one node read: the
// sessions present in ascending index order (SessionsAt's order), a
// server with one slot per present session, and the feasible partition.
// The partition reads only ρ and φ, so it is final at construction; the
// arrival slots start as the sessions' entry characterizations at their
// first hop and as (ρ, 1, 1) placeholders elsewhere, and AnalyzeCRST
// overwrites each with the upstream hop's output once it is derived.
type crstNode struct {
	sessions []int
	srv      gpsmath.Server
	part     gpsmath.Partition
}

// newCRSTTables builds every node's table and feasible partition.
func (n Network) newCRSTTables() (*crstTables, error) {
	t := &crstTables{nodes: make([]crstNode, len(n.Nodes)), off: make([]int, len(n.Sessions)+1)}
	count := make([]int, len(n.Nodes))
	for i, s := range n.Sessions {
		t.off[i+1] = t.off[i] + len(s.Route)
		for k, m := range s.Route {
			if m < 0 || m >= len(n.Nodes) {
				return nil, fmt.Errorf("network: session %d (%s): hop %d references node %d", i, s.Name, k, m)
			}
			count[m]++
		}
	}
	total := t.off[len(n.Sessions)]
	t.slot = make([]int, total)
	// One block each backs every node's session list and server slots.
	idx := make([]int, 0, total)
	slots := make([]gpsmath.Session, 0, total)
	for m := range t.nodes {
		nd := &t.nodes[m]
		nd.sessions = idx[len(idx) : len(idx) : len(idx)+count[m]]
		nd.srv = gpsmath.Server{Rate: n.Nodes[m].Rate, Sessions: slots[len(slots) : len(slots) : len(slots)+count[m]]}
		idx = idx[:len(idx)+count[m]]
		slots = slots[:len(slots)+count[m]]
	}
	for i, s := range n.Sessions {
		for k, m := range s.Route {
			nd := &t.nodes[m]
			arr := ebb.Process{Rho: s.Arrival.Rho, Lambda: 1, Alpha: 1}
			if k == 0 {
				arr = s.Arrival
			}
			t.slot[t.off[i]+k] = len(nd.sessions)
			nd.sessions = append(nd.sessions, i)
			nd.srv.Sessions = append(nd.srv.Sessions, gpsmath.Session{Name: s.Name, Phi: s.Phi[k], Arrival: arr})
		}
	}
	for m := range t.nodes {
		nd := &t.nodes[m]
		if len(nd.sessions) == 0 {
			continue
		}
		part, err := nd.srv.FeasiblePartition()
		if err != nil {
			return nil, fmt.Errorf("network: node %d (%s): %w", m, n.Nodes[m].Name, err)
		}
		nd.part = part
	}
	return t, nil
}

// localClass is session i's local partition class at its k-th node.
func (t *crstTables) localClass(n Network, i, k int) int {
	return t.nodes[n.Sessions[i].Route[k]].part.ClassOf[t.slot[t.off[i]+k]]
}

// ErrNotCRST reports that no global partition is consistent with the
// per-node feasible partitions (some pair of sessions impede each other
// in opposite directions at different nodes).
var ErrNotCRST = errors.New("network: GPS assignment is not CRST")

// CRSTClasses computes a global session partition H_1..H_L consistent
// with every node's local feasible partition, in the paper's §6.1 sense:
// whenever session j sits in a strictly lower local class than session i
// at some shared node, j's global class is strictly lower than i's.
// Global classes are assigned by longest-path depth in the induced
// precedence DAG; a cycle in that graph means the assignment is not CRST.
func (n Network) CRSTClasses() (classes [][]int, classOf []int, err error) {
	t, err := n.newCRSTTables()
	if err != nil {
		return nil, nil, err
	}
	return t.classes(n)
}

// classes runs the longest-path assignment of CRSTClasses. The DAG is
// not built over session pairs — that is Σ_m N_m² edges — but over one
// gate vertex per (node m, local class c ≥ 1): session j of local class
// b at m has a weight-1 edge to gate (m, b+1), each gate a weight-0 edge
// to the next gate at its node and to every session of its own class.
// Session j reaches session i over one weight-1 edge and gate edges of a
// single node exactly when that node puts j in a strictly lower local
// class than i — an edge of the session-pair graph — so weighted paths
// between sessions are that graph's chains, the heaviest path from a
// session to a sink is its longest chain, and every cycle passes through
// two sessions that impede each other. Levels are found by peeling sinks
// (Kahn's algorithm on the reversed graph): O(Σ route lengths + Σ L_m).
func (t *crstTables) classes(n Network) ([][]int, []int, error) {
	nSess := len(n.Sessions)
	// Gate (m, c) is vertex gateBase[m] + c - 1.
	gateBase := make([]int, len(t.nodes)+1)
	gateBase[0] = nSess
	for m := range t.nodes {
		gates := 0
		if L := t.nodes[m].part.L(); L > 1 {
			gates = L - 1
		}
		gateBase[m+1] = gateBase[m] + gates
	}
	nV := gateBase[len(t.nodes)]
	gateNode := make([]int, nV-nSess)
	out := make([]int, nV) // unpeeled successors
	for m := range t.nodes {
		classes := t.nodes[m].part.Classes
		for c := 1; c < len(classes); c++ {
			v := gateBase[m] + c - 1
			gateNode[v-nSess] = m
			out[v] = len(classes[c])
			if c+1 < len(classes) {
				out[v]++
			}
		}
	}
	for j, s := range n.Sessions {
		for k, m := range s.Route {
			if t.localClass(n, j, k)+1 < t.nodes[m].part.L() {
				out[j]++
			}
		}
	}
	level := make([]int, nV) // heaviest path to a sink
	stack := make([]int, 0, nV)
	for v, d := range out {
		if d == 0 {
			stack = append(stack, v)
		}
	}
	relax := func(u, lvl int) {
		if lvl > level[u] {
			level[u] = lvl
		}
		if out[u]--; out[u] == 0 {
			stack = append(stack, u)
		}
	}
	peeled := 0
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		peeled++
		if v < nSess {
			for k, m := range n.Sessions[v].Route {
				if c := t.localClass(n, v, k); c > 0 {
					relax(gateBase[m]+c-1, level[v])
				}
			}
			continue
		}
		m := gateNode[v-nSess]
		c := v - gateBase[m] + 1
		if c > 1 {
			relax(v-1, level[v])
		}
		nd := &t.nodes[m]
		for _, pos := range nd.part.Classes[c-1] {
			relax(nd.sessions[pos], level[v]+1)
		}
	}
	if peeled < nV {
		a, b := t.cycle(n, gateBase, gateNode, out)
		return nil, nil, fmt.Errorf("%w: sessions %s and %s impede each other cyclically",
			ErrNotCRST, n.Sessions[a].Name, n.Sessions[b].Name)
	}
	// The global class counts from the front: maxLevel - level. Levels
	// are contiguous (a session at level l > 0 reaches one at level l-1),
	// so no class is empty.
	maxLvl := 0
	for _, l := range level[:nSess] {
		if l > maxLvl {
			maxLvl = l
		}
	}
	classOf := make([]int, nSess)
	classes := make([][]int, maxLvl+1)
	for v, l := range level[:nSess] {
		c := maxLvl - l
		classOf[v] = c
		classes[c] = append(classes[c], v)
	}
	return classes, classOf, nil
}

// cycle names two sessions on a cycle of the gate graph left after
// peeling. Every unpeeled vertex keeps an unpeeled successor, so a walk
// along unpeeled successors must revisit a vertex; the loop it closes
// holds at least two sessions, because one session's own edges never
// lead back to it.
func (t *crstTables) cycle(n Network, gateBase, gateNode, out []int) (a, b int) {
	nSess := len(n.Sessions)
	next := func(v int) int {
		if v < nSess {
			for k, m := range n.Sessions[v].Route {
				if c := t.localClass(n, v, k) + 1; c < t.nodes[m].part.L() && out[gateBase[m]+c-1] > 0 {
					return gateBase[m] + c - 1
				}
			}
			panic("network: unpeeled session without an unpeeled successor")
		}
		m := gateNode[v-nSess]
		c := v - gateBase[m] + 1
		nd := &t.nodes[m]
		if c+1 < nd.part.L() && out[v+1] > 0 {
			return v + 1
		}
		for _, pos := range nd.part.Classes[c] {
			if j := nd.sessions[pos]; out[j] > 0 {
				return j
			}
		}
		panic("network: unpeeled gate without an unpeeled successor")
	}
	v := 0
	for out[v] == 0 {
		v++
	}
	seen := map[int]int{}
	var path []int
	for {
		if at, ok := seen[v]; ok {
			path = path[at:]
			break
		}
		seen[v] = len(path)
		path = append(path, v)
		v = next(v)
	}
	var names []int
	for _, v := range path {
		if v < nSess {
			names = append(names, v)
		}
	}
	return names[0], names[1]
}

// HopBound is the statistical bound at one hop of one session's route.
type HopBound struct {
	Node    int
	G       float64 // guaranteed clearing rate at this node
	Theta   float64 // Chernoff parameter the tails were evaluated at
	Backlog numeric.ExpTail
	Delay   numeric.ExpTail
	Output  ebb.Process // E.B.B. characterization of the hop's departures
}

// CRSTOptions steers AnalyzeCRST.
type CRSTOptions struct {
	// Independent applies Theorem 11 at every node. This is only sound
	// when interfering flows are independent at each node — guaranteed at
	// network entry but not at interior nodes, so the default (false)
	// uses the Hölder route (Theorem 12), which needs no independence.
	Independent bool
	// Xi selects the Lemma 6 ξ handling.
	Xi gpsmath.XiMode
	// ThetaFraction in (0,1) picks θ = fraction·θ_max at each hop.
	// Defaults to 0.5. Smaller values fatten prefactors but slow decay
	// less; the choice propagates into downstream characterizations.
	ThetaFraction float64
}

// CRSTAnalysis is the result of the recursive Theorem 13 procedure.
type CRSTAnalysis struct {
	Classes [][]int
	ClassOf []int
	// Hops[i][k] is session i's bound at its k-th hop.
	Hops [][]HopBound
}

// AnalyzeCRST runs the paper's recursive procedure: global CRST classes
// are processed in order; each session's per-hop bounds and output
// characterizations are derived from the already-characterized inputs of
// strictly lower classes, establishing Theorem 13 (stability)
// constructively — every per-hop tail returned is a finite exponential
// bound.
//
// Each node's tables, feasible partition and Theorem 11/12 memo are
// built once per analysis (see DESIGN.md §14, "Analysis cost"). A
// session's bound at a node reads every ρ and φ there, its own input,
// and the inputs of the node's strictly lower local classes. Under CRST
// a lower local class is a strictly lower global class, whose sessions
// are finished before the session is reached, so the node's memo only
// ever has to be extended class by class as those classes complete.
func (n Network) AnalyzeCRST(opts CRSTOptions) (*CRSTAnalysis, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	if opts.ThetaFraction == 0 {
		opts.ThetaFraction = 0.5
	}
	if opts.ThetaFraction <= 0 || opts.ThetaFraction >= 1 {
		return nil, fmt.Errorf("network: theta fraction = %v, want in (0,1)", opts.ThetaFraction)
	}
	t, err := n.newCRSTTables()
	if err != nil {
		return nil, err
	}
	classes, classOf, err := t.classes(n)
	if err != nil {
		return nil, err
	}
	a := &CRSTAnalysis{Classes: classes, ClassOf: classOf, Hops: make([][]HopBound, len(n.Sessions))}
	hops := make([]HopBound, len(t.slot))
	for i := range n.Sessions {
		a.Hops[i] = hops[t.off[i]:t.off[i+1]:t.off[i+1]]
	}
	memos := make([]*gpsmath.PartitionMemo, len(t.nodes))
	for m := range t.nodes {
		if nd := &t.nodes[m]; len(nd.sessions) > 0 {
			memos[m] = nd.srv.NewPartitionMemo(nd.part)
		}
	}
	phiSum := n.phiSums()

	var sb gpsmath.SessionBounds
	for _, class := range classes {
		for _, i := range class {
			route := n.Sessions[i].Route
			for k, m := range route {
				pos := t.slot[t.off[i]+k]
				if opts.Independent {
					err = memos[m].Theorem11Into(&sb, pos, opts.Xi)
				} else {
					err = memos[m].Theorem12Into(&sb, pos, opts.Xi)
				}
				if err != nil {
					return nil, fmt.Errorf("network: session %s at node %d: %w", n.Sessions[i].Name, m, err)
				}
				theta := opts.ThetaFraction * sb.ThetaMax
				out, err := sb.OutputEBB(theta)
				if err != nil {
					return nil, err
				}
				g := n.rateAt(i, k, phiSum)
				a.Hops[i][k] = HopBound{
					Node:    m,
					G:       g,
					Theta:   theta,
					Backlog: numeric.ExpTail{Prefactor: out.Lambda, Rate: theta},
					Delay:   numeric.ExpTail{Prefactor: out.Lambda, Rate: theta * g},
					Output:  out,
				}
				if k+1 < len(route) {
					t.nodes[route[k+1]].srv.Sessions[t.slot[t.off[i]+k+1]].Arrival = out
				}
			}
		}
	}
	return a, nil
}

// EndToEndDelayTail returns a bound on Pr{D_i^net >= d} by convolving the
// per-hop delay tails (the paper's §6.1 closing step). The closure form
// keeps the exact union split; EndToEndDelayExpTail folds it into one
// conservative exponential.
func (a *CRSTAnalysis) EndToEndDelayTail(i int) func(d float64) float64 {
	parts := make([]numeric.ExpTail, len(a.Hops[i]))
	for k, hb := range a.Hops[i] {
		parts[k] = hb.Delay
	}
	return numeric.SumTail(parts)
}

// EndToEndDelayExpTail folds the per-hop delay tails into a single
// exponential envelope.
func (a *CRSTAnalysis) EndToEndDelayExpTail(i int) numeric.ExpTail {
	parts := make([]numeric.ExpTail, len(a.Hops[i]))
	for k, hb := range a.Hops[i] {
		parts[k] = hb.Delay
	}
	return numeric.FitSumTail(parts)
}

// NetworkBacklogTail bounds Pr{Q_i^net >= q}, the session's total queued
// volume across its route, by convolving the per-hop backlog tails
// (Q_i^net = Σ_k Q_i at hop k).
func (a *CRSTAnalysis) NetworkBacklogTail(i int) func(q float64) float64 {
	parts := make([]numeric.ExpTail, len(a.Hops[i]))
	for k, hb := range a.Hops[i] {
		parts[k] = hb.Backlog
	}
	return numeric.SumTail(parts)
}

// WorstHop returns the hop index whose delay bound is loosest at the
// given delay level — the session's statistical bottleneck, which need
// not be the minimum-g hop once prefactors are accounted for.
func (a *CRSTAnalysis) WorstHop(i int, d float64) int {
	worst, idx := -1.0, 0
	for k, hb := range a.Hops[i] {
		if v := hb.Delay.EvalRaw(d); v > worst {
			worst, idx = v, k
		}
	}
	return idx
}
