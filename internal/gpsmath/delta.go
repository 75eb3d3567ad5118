package gpsmath

import (
	"fmt"
	"math"
	"sort"
)

// This file implements incremental (delta) analysis: a DeltaAnalyzer
// holds the session population and the structures AnalyzeServer would
// rebuild from scratch — the ρ/φ ratios behind the feasible partition
// (eqs. 37–39) and the feasible ordering of eq. (5) — and patches them
// under batches of admits and releases instead of re-deriving them.
//
// The contract is bit-identity: every Analysis a DeltaAnalyzer produces
// evaluates every bound to the same Float64bits as a fresh
// AnalyzeServer over the same session slice. That falls out of three
// invariants, each pinned by the delta-vs-fresh differential suite:
//
//  1. The session slice itself is maintained exactly as a caller
//     (the gpsd daemon) maintains its population: admits append,
//     releases swap-remove (last session moves into the freed slot).
//     Every left-to-right fold AnalyzeServer performs — TotalPhi,
//     TotalRho, per-class ρ/φ accumulations — is a fold over this
//     slice, so identical slices give identical sums.
//  2. The ordering comparator (ratioOrder) is a strict total order, so
//     the sorted permutation is unique: insertion-repairing the
//     previous epoch's ordering lands on the same permutation a fresh
//     sort would, element for element.
//  3. The per-session bound constructors live behind the shared
//     partitionMemo/orderingMemo machinery, and the lazy Analysis
//     accessors construct bounds through the same *Into helpers the
//     eager path uses — there is no second implementation to drift.
//
// What stays O(N): the decomposed rates r_i = ρ_i + slack/N change for
// every session on every op (slack and N both move), so the rate and
// ratio fills, the memo prefix/suffix passes, and the feasibility sweep
// remain lean linear float passes (~a few ms at 131k sessions). What
// the delta path eliminates is everything superlinear or heavyweight:
// the O(N log N) sort (repaired in O(N + moves)), the eq. (5)
// verification pass, and above all the O(N) construction of per-session
// bound objects and their Θ(N)-cost ordering-route prefactors — the
// dominant cost of a fresh build. Bounds are constructed lazily, only
// for the sessions a caller actually evaluates.

// DeltaStats counts what the analyzer did; the daemon exports them as
// metrics.
type DeltaStats struct {
	// Admits and Releases count successfully applied operations.
	Admits, Releases uint64
	// OrderRepairs counts refreshes where the bounded insertion repair
	// fixed the feasible ordering; OrderSorts counts the fallbacks to a
	// full sort (repair budget exhausted — ratios moved too much).
	OrderRepairs, OrderSorts uint64
}

// DeltaAnalyzer maintains an Analysis across batches of admits and
// releases in O(affected) structural work per batch. It is not
// goroutine-safe; the intended owner is a single writer (the gpsd
// rebuild loop) that publishes the returned analyses to readers via
// epoch snapshots. Returned analyses are immutable and remain valid
// after further operations: admits extend the session slice
// append-share style (old epochs see the old length), and releases
// copy it fresh.
type DeltaAnalyzer struct {
	opts Options
	rate float64
	// sess is the live population. pRatio[i] = ρ_i/φ_i is maintained
	// alongside it (same append/swap-remove moves) and feeds the
	// partition rounds without a per-refresh division pass.
	sess   []Session
	pRatio []float64
	an     *Analysis
	stats  DeltaStats
	// ratioScratch backs the r_i/φ_i ordering ratios during a refresh;
	// nothing epoch-visible retains it, so it is reused across ops.
	ratioScratch []float64
}

// NewDeltaAnalyzer seeds an analyzer with the server's sessions and
// computes the initial analysis along the fully verified fresh path
// (Server.Validate, FeasibleOrdering's eq. (5) check). An empty session
// slice is permitted — Analysis returns nil until the first admit.
func NewDeltaAnalyzer(srv Server, opts Options) (*DeltaAnalyzer, error) {
	if opts.SlackFraction == 0 {
		opts.SlackFraction = 1
	}
	if !(srv.Rate > 0) || math.IsInf(srv.Rate, 1) || math.IsNaN(srv.Rate) {
		return nil, fmt.Errorf("%w: server rate = %v, want positive finite", ErrInvalidInput, srv.Rate)
	}
	n := len(srv.Sessions)
	d := &DeltaAnalyzer{
		opts:   opts,
		rate:   srv.Rate,
		sess:   append(make([]Session, 0, n), srv.Sessions...),
		pRatio: make([]float64, n),
	}
	for i := range d.sess {
		d.pRatio[i] = d.sess[i].Arrival.Rho / d.sess[i].Phi
	}
	if n == 0 {
		return d, nil
	}
	if err := d.refresh(nil, 0); err != nil {
		return nil, err
	}
	return d, nil
}

// Analysis returns the current analysis (nil when no sessions are
// admitted). The returned value is immutable; later operations produce
// new analyses without disturbing it.
func (d *DeltaAnalyzer) Analysis() *Analysis { return d.an }

// Len returns the current session count.
func (d *DeltaAnalyzer) Len() int { return len(d.sess) }

// Server returns the current server view. The session slice is shared
// with the analyzer under the append-share discipline: it is valid
// until the caller's next operation at the returned length.
func (d *DeltaAnalyzer) Server() Server { return Server{Rate: d.rate, Sessions: d.sess} }

// Stats returns operation counters.
func (d *DeltaAnalyzer) Stats() DeltaStats { return d.stats }

// Admit appends one session and refreshes the analysis: a one-op Apply.
// The new session is validated like Server.Validate would (positive
// finite φ, valid E.B.B. triple); stability (Σρ < r) is enforced by the
// refresh. On error the analyzer is left unchanged.
func (d *DeltaAnalyzer) Admit(s Session) (*Analysis, error) {
	return d.Apply([]DeltaOp{{Session: s}})
}

// Release removes the session at index pos by swap-remove — the last
// session moves into slot pos, matching the daemon's order-array
// discipline — and refreshes the analysis: a one-op Apply. Releasing
// the final session returns (nil, nil) and empties the analyzer. On
// error the analyzer is left unchanged.
func (d *DeltaAnalyzer) Release(pos int) (*Analysis, error) {
	return d.Apply([]DeltaOp{{Release: true, Pos: pos}})
}

// validateSession checks an admitted session like Server.Validate
// would: positive finite φ and a valid E.B.B. triple.
func validateSession(s Session) error {
	if !(s.Phi > 0) || math.IsInf(s.Phi, 1) || math.IsNaN(s.Phi) {
		return fmt.Errorf("%w: session %s: phi = %v, want positive finite", ErrInvalidInput, s.Name, s.Phi)
	}
	if err := s.Arrival.Validate(); err != nil {
		return fmt.Errorf("gpsmath: session %s: %w", s.Name, err)
	}
	return nil
}

// DeltaOp is one population change for DeltaAnalyzer.Apply: the admit
// of Session, or (Release set) the release of the session at index Pos
// of the population as the earlier ops of the batch left it.
type DeltaOp struct {
	Release bool
	Pos     int
	Session Session
}

// Apply applies a batch of admits and releases in order — admits
// append, releases swap-remove — and refreshes the analysis once, at
// the end. The result is bit-identical to applying the ops one at a
// time: a refresh reads only the final session slice, and the ordering
// it produces is the unique (ratio, index) sort whatever seed it starts
// from. What a batch saves is every intermediate refresh and every
// per-release copy of the population: the slices are copied at most
// once, on the first release. Admitted sessions are validated like
// Server.Validate would. A batch that empties the population returns
// (nil, nil). On error the analyzer is left unchanged.
//
// Old epochs need the old arrays intact. Admits extend the backing
// arrays past every published length (append-share), which never
// perturbs a shorter slice header; a failed batch that already grew
// them is harmless for the same reason. Releases edit interior slots,
// so the first one copies the slices, with spare capacity for the
// admits that follow.
func (d *DeltaAnalyzer) Apply(ops []DeltaOp) (*Analysis, error) {
	if len(ops) == 0 {
		return d.an, nil
	}
	b := deltaBatch{sess: d.sess, ratio: d.pRatio, n0: len(d.sess)}
	for _, op := range ops {
		if err := b.apply(op); err != nil {
			return nil, err
		}
	}
	prevSess, prevRatio := d.sess, d.pRatio
	d.sess, d.pRatio = b.sess, b.ratio
	if len(b.sess) == 0 {
		d.an = nil
	} else {
		var seed []int
		fresh := 0
		if d.an != nil {
			seed, fresh = d.seedOrdering(b.n0, len(b.sess), b.moved)
		}
		if err := d.refresh(seed, fresh); err != nil {
			d.sess, d.pRatio = prevSess, prevRatio
			return nil, err
		}
	}
	d.stats.Admits += b.admits
	d.stats.Releases += b.releases
	return d.an, nil
}

// deltaBatch is the population an Apply batch edits, op by op.
type deltaBatch struct {
	sess  []Session
	ratio []float64
	// n0 is the population size before the batch. moved records the
	// slots below n0 whose occupant the batch changed: slot → pre-batch
	// index of the session now there, or -1 for one the batch admitted.
	// A swap-remove only moves a session down, so pre-batch sessions
	// never reach a slot at or past n0, and a slot absent from moved
	// still holds its own pre-batch session. moved stays nil until the
	// first release, which is also when the slices are copied.
	n0               int
	moved            map[int]int
	admits, releases uint64
}

func (b *deltaBatch) apply(op DeltaOp) error {
	if !op.Release {
		if err := validateSession(op.Session); err != nil {
			return err
		}
		if k := len(b.sess); k < b.n0 {
			b.moved[k] = -1
		}
		b.sess = append(b.sess, op.Session)
		b.ratio = append(b.ratio, op.Session.Arrival.Rho/op.Session.Phi)
		b.admits++
		return nil
	}
	n := len(b.sess)
	if op.Pos < 0 || op.Pos >= n {
		return fmt.Errorf("%w: release position %d with %d sessions", ErrInvalidInput, op.Pos, n)
	}
	if b.moved == nil {
		b.sess = append(make([]Session, 0, n+64), b.sess...)
		b.ratio = append(make([]float64, 0, n+64), b.ratio...)
		b.moved = make(map[int]int)
	}
	last := n - 1
	if op.Pos < b.n0 {
		from := -1
		if last < b.n0 {
			from = last
			if o, ok := b.moved[last]; ok {
				from = o
			}
		}
		b.moved[op.Pos] = from
	}
	if last < b.n0 {
		delete(b.moved, last)
	}
	b.sess[op.Pos], b.ratio[op.Pos] = b.sess[last], b.ratio[last]
	b.sess, b.ratio = b.sess[:last], b.ratio[:last]
	b.releases++
	return nil
}

// seedOrdering builds the ordering repair's starting point after a
// batch took the population from n0 to n sessions: the previous
// permutation with released sessions dropped and moved ones renamed to
// their new slots, followed by the fresh block of admitted sessions,
// whose length it returns. It touches only the entries the batch moved,
// found through posOf, so apart from the copy it costs O(batch).
func (d *DeltaAnalyzer) seedOrdering(n0, n int, moved map[int]int) ([]int, int) {
	seed := make([]int, n0, max(n0, n))
	copy(seed, d.an.Ordering)
	if moved == nil {
		for k := n0; k < n; k++ {
			seed = append(seed, k)
		}
		return seed, n - n0
	}
	// Every pre-batch session that left its slot is dropped first; the
	// ones that landed in another slot are then renamed to it.
	for k := range moved {
		seed[d.an.posOf[k]] = -1
	}
	for k := n; k < n0; k++ {
		seed[d.an.posOf[k]] = -1
	}
	for k, o := range moved {
		if o >= 0 {
			seed[d.an.posOf[o]] = k
		}
	}
	kept := seed[:0]
	for _, v := range seed {
		if v >= 0 {
			kept = append(kept, v)
		}
	}
	seed = kept
	fresh := 0
	for k, o := range moved {
		if o < 0 {
			seed = append(seed, k)
			fresh++
		}
	}
	for k := n0; k < n; k++ {
		seed = append(seed, k)
		fresh++
	}
	return seed, fresh
}

// SetRate changes the service rate the analyzer computes under and
// refreshes the analysis at the unchanged population. Every
// rate-dependent structure — decomposed rates, ordering ratios, the
// partition thresholds, the memo prefix/suffix passes — is recomputed
// by the refresh, so the resulting analysis is bit-identical to a
// fresh AnalyzeServer over the same sessions at the new rate (the
// differential test pins this). The daemon's sharded writer uses it
// when the cross-shard ledger grows or shrinks a shard's capacity
// slice: a capacity move costs one refresh, not a full rebuild. On
// error the analyzer is left at the old rate, unchanged.
func (d *DeltaAnalyzer) SetRate(rate float64) error {
	if !(rate > 0) || math.IsInf(rate, 1) || math.IsNaN(rate) {
		return fmt.Errorf("%w: server rate = %v, want positive finite", ErrInvalidInput, rate)
	}
	if math.Float64bits(rate) == math.Float64bits(d.rate) {
		return nil
	}
	prev := d.rate
	d.rate = rate
	if len(d.sess) == 0 {
		return nil
	}
	var seed []int
	if d.an != nil {
		// The population did not change, so the previous permutation is a
		// near-sorted candidate: only the slack shift nudges ratios.
		seed = append(make([]int, 0, len(d.an.Ordering)), d.an.Ordering...)
	}
	if err := d.refresh(seed, 0); err != nil {
		d.rate = prev
		return err
	}
	return nil
}

// refresh rebuilds the analysis for the current session slice. A nil
// seed takes the fully verified fresh path (Validate + FeasibleOrdering
// with its eq. (5) check); a non-nil seed is a near-sorted candidate
// permutation covering [0, len(sess)) that is repaired in place.
//
// The repair path skips the eq. (5) verification: the greedy min r/φ
// order satisfies eq. (5) whenever Σr_i <= r (paper §3), and
// DecomposedRates guarantees exactly that by construction — it errors
// with ErrOverloaded before producing rates otherwise. The daemon's
// periodic self-check re-runs the verified path against the same
// population, so a violation could not persist silently even if the
// rates were somehow inconsistent.
func (d *DeltaAnalyzer) refresh(seed []int, fresh int) error {
	srv := Server{Rate: d.rate, Sessions: d.sess}
	var (
		rates []float64
		ord   []int
		err   error
	)
	if seed == nil {
		if err = srv.Validate(); err != nil {
			return err
		}
		if rates, err = srv.DecomposedRates(d.opts.Split, d.opts.SlackFraction); err != nil {
			return err
		}
		if ord, err = srv.FeasibleOrdering(rates); err != nil {
			return err
		}
	} else {
		if rates, err = srv.DecomposedRates(d.opts.Split, d.opts.SlackFraction); err != nil {
			return err
		}
		n := len(seed)
		if cap(d.ratioScratch) < n {
			d.ratioScratch = make([]float64, n, n+n/2+8)
		}
		// Same expression as FeasibleOrdering's ratio fill: the slack
		// moved, so every ratio is recomputed (bit-identically).
		ratio := d.ratioScratch[:n]
		for i := range ratio {
			ratio[i] = rates[i] / d.sess[i].Phi
		}
		ord = seed
		if fresh > 0 {
			mergeFresh(ord, fresh, ratio)
		}
		if repairOrder(ord, ratio) {
			d.stats.OrderRepairs++
		} else {
			sort.Sort(ratioOrder{idx: ord, ratio: ratio})
			d.stats.OrderSorts++
		}
	}
	part, err := d.partition(srv)
	if err != nil {
		return err
	}
	posOf := make([]int, len(ord))
	for pos, i := range ord {
		posOf[i] = pos
	}
	an := &Analysis{
		Server:    srv,
		Partition: part,
		Ordering:  ord,
		Rates:     rates,
		opts:      d.opts,
		pm:        srv.newPartitionMemo(part),
		om:        srv.newOrderingMemoOwned(ord, rates),
		posOf:     posOf,
	}
	// Surface the per-session slack guard now, so the lazy accessors of
	// a published analysis cannot fail later.
	if err := an.checkFeasible(); err != nil {
		return err
	}
	d.an = an
	return nil
}

// partition runs the feasible-partition recursion (eqs. 37–39) over the
// maintained ρ/φ ratios. It is the reference round algorithm — scan all
// unplaced sessions in index order against the round threshold — whose
// arithmetic FeasiblePartition is pinned to bit for bit, with the
// per-session ratio divisions already done. O(L·N) scans, but L is the
// class count (small) and a round is a single float compare per
// session, so this is one of the lean linear passes.
func (d *DeltaAnalyzer) partition(srv Server) (Partition, error) {
	n := len(srv.Sessions)
	p := Partition{ClassOf: make([]int, n)}
	for i := range p.ClassOf {
		p.ClassOf[i] = -1
	}
	placedRho := 0.0
	remPhi := srv.TotalPhi()
	remaining := n
	// The arena backs the epoch-visible class slices: allocated fresh
	// per refresh (old epochs keep their own).
	arena := make([]int, 0, n)
	for remaining > 0 {
		threshold := (srv.Rate - placedRho) / remPhi
		start := len(arena)
		for i, r := range d.pRatio {
			if p.ClassOf[i] >= 0 {
				continue
			}
			if r < threshold {
				arena = append(arena, i)
			}
		}
		class := arena[start:len(arena):len(arena)]
		if len(class) == 0 {
			return Partition{}, fmt.Errorf("gpsmath: feasible partition stalled with %d sessions left (sum rho >= rate?)", remaining)
		}
		k := len(p.Classes)
		for _, i := range class {
			p.ClassOf[i] = k
			placedRho += srv.Sessions[i].Arrival.Rho
			remPhi -= srv.Sessions[i].Phi
		}
		p.Classes = append(p.Classes, class)
		remaining -= len(class)
	}
	return p, nil
}

// mergeFresh sorts the last fresh entries of ord by (ratio, index) and
// merges them into the entries before them, back to front so the merge
// needs scratch only for the fresh block. The head is only near-sorted,
// so the result is near-sorted too; repairOrder finishes the job.
func mergeFresh(ord []int, fresh int, ratio []float64) {
	h := len(ord) - fresh
	tail := append([]int(nil), ord[h:]...)
	sort.Sort(ratioOrder{idx: tail, ratio: ratio})
	less := func(a, b int) bool {
		return ratio[a] < ratio[b] || (ratio[a] == ratio[b] && a < b)
	}
	i, j := h-1, fresh-1
	for k := len(ord) - 1; j >= 0; k-- {
		if i >= 0 && less(tail[j], ord[i]) {
			ord[k] = ord[i]
			i--
		} else {
			ord[k] = tail[j]
			j--
		}
	}
}

// repairOrder insertion-sorts ord by (ratio, index) in place, assuming
// it is already nearly sorted, and reports whether it finished within
// its move budget. A single admit/release displaces O(1) elements, but
// the slack shift also nudges every ratio, occasionally flipping
// near-equal neighbors — hence a budget of a few N rather than exactly
// the seeded displacement. On a bust the caller falls back to a full
// sort; either way the result is the unique (ratio, index)-sorted
// permutation, so the fallback changes cost, never bits.
func repairOrder(ord []int, ratio []float64) bool {
	budget := 4*len(ord) + 64
	moves := 0
	for i := 1; i < len(ord); i++ {
		v := ord[i]
		j := i - 1
		for j >= 0 && (ratio[v] < ratio[ord[j]] || (ratio[v] == ratio[ord[j]] && v < ord[j])) {
			ord[j+1] = ord[j]
			j--
			moves++
		}
		ord[j+1] = v
		if moves > budget {
			return false
		}
	}
	return true
}
