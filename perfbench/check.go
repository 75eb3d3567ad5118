package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"time"

	"repro/internal/gpsmath"
	"repro/internal/server"
)

// The correctness gate runs after the timed window, never inside it.
// Every failure is a checkError, which makes the command exit non-zero.

type checkError struct{ msg string }

func (e *checkError) Error() string { return "correctness: " + e.msg }

func failf(format string, args ...any) error {
	return &checkError{fmt.Sprintf(format, args...)}
}

func asCheck(err error, target **checkError) bool { return errors.As(err, target) }

func flipBit(v float64) float64 { return math.Float64frombits(math.Float64bits(v) ^ 1) }

func bitEq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// boundsWire is GET /v1/bounds/{id}.
type boundsWire struct {
	ID          string  `json:"id"`
	Epoch       uint64  `json:"epoch"`
	G           float64 `json:"g"`
	Rho         float64 `json:"rho"`
	Theorem     string  `json:"theorem"`
	Q           float64 `json:"q"`
	BacklogProb float64 `json:"backlog_prob"`
	Delay       float64 `json:"delay"`
	DelayProb   float64 `json:"delay_prob"`
	TargetDelay float64 `json:"target_delay"`
	TargetEps   float64 `json:"target_eps"`
	AchievedEps float64 `json:"achieved_eps"`
	MeetsTarget bool    `json:"meets_target"`
}

// sameBounds compares every served field but the epoch sequence in bits.
func sameBounds(a, b boundsWire) bool {
	return a.ID == b.ID && a.Theorem == b.Theorem && a.MeetsTarget == b.MeetsTarget &&
		bitEq(a.G, b.G) && bitEq(a.Rho, b.Rho) && bitEq(a.Q, b.Q) && bitEq(a.BacklogProb, b.BacklogProb) &&
		bitEq(a.Delay, b.Delay) && bitEq(a.DelayProb, b.DelayProb) && bitEq(a.TargetDelay, b.TargetDelay) &&
		bitEq(a.TargetEps, b.TargetEps) && bitEq(a.AchievedEps, b.AchievedEps)
}

// offlineBounds recomputes what GET /v1/bounds serves for session i of
// an epoch (default evaluation points) from a fresh analysis.
func offlineBounds(ep *server.Epoch, an *gpsmath.Analysis, id string, i int) boundsWire {
	b := an.PartitionBound(i)
	t := ep.Targets[i]
	q := b.G * t.Delay
	achieved := an.BestDelayTailValue(i, t.Delay)
	return boundsWire{
		ID: id, Epoch: ep.Seq, G: b.G, Rho: b.Rho, Theorem: b.Theorem,
		Q: q, BacklogProb: an.BestBacklogTailValue(i, q),
		Delay: t.Delay, DelayProb: an.BestDelayTailValue(i, t.Delay),
		TargetDelay: t.Delay, TargetEps: t.Eps, AchievedEps: achieved, MeetsTarget: achieved <= t.Eps,
	}
}

func readBounds(c client, id string) (boundsWire, error) {
	code, body := c.call(http.MethodGet, "/v1/bounds/"+id, nil)
	if code != http.StatusOK {
		return boundsWire{}, failf("GET /v1/bounds/%s: HTTP %d", id, code)
	}
	var b boundsWire
	if err := json.Unmarshal(body, &b); err != nil {
		return boundsWire{}, failf("GET /v1/bounds/%s: decode: %v", id, err)
	}
	return b, nil
}

// sample picks up to n distinct entries of ids with r.
func sample(r *rand.Rand, ids []string, n int) []string {
	idx := r.Perm(len(ids))
	out := make([]string, 0, n)
	for _, k := range idx[:min(n, len(ids))] {
		out = append(out, ids[k])
	}
	return out
}

// check is the hop workloads' correctness gate, followed by the timed
// restarts that give recover_s (their reads are checked too).
func (r *hopRun) check(out *outcome) error {
	if err := r.node.rebuild(nil); err != nil {
		return failf("final publish: %v", err)
	}
	c := client{r.node.h}

	// Every acknowledged admit is published and every released id is gone.
	code, body := c.call(http.MethodGet, "/v1/partition", nil)
	var part struct {
		Sessions int        `json:"sessions"`
		Classes  [][]string `json:"classes"`
	}
	if code != http.StatusOK || json.Unmarshal(body, &part) != nil {
		return failf("GET /v1/partition: HTTP %d", code)
	}
	published := make(map[string]bool, part.Sessions)
	for _, class := range part.Classes {
		for _, id := range class {
			published[id] = true
		}
	}
	for _, id := range r.live.ids {
		if !published[id] {
			return failf("acknowledged session %s is missing from the published partition", id)
		}
	}
	if len(published) != r.live.len() || part.Sessions != r.live.len() {
		return failf("published partition holds %d sessions (reports %d), client holds %d", len(published), part.Sessions, r.live.len())
	}
	out.pass("all %d acknowledged sessions are in the published partition, and nothing else", r.live.len())
	rng := rand.New(rand.NewPCG(r.cfg.seed, 3))
	for _, id := range r.released.ids {
		if code, _ := c.call(http.MethodGet, "/v1/bounds/"+id, nil); code != http.StatusNotFound {
			return failf("released session %s answers HTTP %d, want 404", id, code)
		}
	}
	out.pass("%d sampled released sessions answer 404", len(r.released.ids))

	var health struct {
		Sessions int `json:"sessions"`
	}
	code, body = c.call(http.MethodGet, "/healthz", nil)
	if code != http.StatusOK || json.Unmarshal(body, &health) != nil {
		return failf("GET /healthz: HTTP %d", code)
	}
	if health.Sessions != r.live.len() || r.node.svc.Health().Sessions != r.live.len() {
		return failf("health reports %d sessions (Health() %d), client holds %d", health.Sessions, r.node.svc.Health().Sessions, r.live.len())
	}
	out.pass("Health().Sessions and /healthz equal the client's %d live sessions", r.live.len())

	// Sampled served bounds against a fresh AnalyzeServer of the epoch
	// that served them. The reads are timed: they give bounds_p50_ms on
	// a workload whose loop reads nothing.
	ids := make([]string, max(r.cfg.reads, r.cfg.samples))
	for k := range ids {
		ids[k] = r.ofType(rng, readType(k))
	}
	served := make([]boundsWire, len(ids))
	for k, id := range ids {
		sw := startWatch()
		b, err := readBounds(c, id)
		out.reads.add(sw)
		if err != nil {
			return err
		}
		served[k] = b
	}
	n := min(len(ids), r.cfg.samples)
	ids, served = ids[:n], served[:n]
	// A bound's evaluation cost depends on the session, so the first
	// read after each restart is of the checked session whose read took
	// the median CPU time, not of whichever one the seed drew first.
	med, k := median(append([]float64(nil), out.reads.cpu[:n]...)), 0
	for j, v := range out.reads.cpu[:n] {
		if v == med {
			k = j
		}
	}
	ids[0], ids[k] = ids[k], ids[0]
	served[0], served[k] = served[k], served[0]
	for k, id := range ids {
		if err := r.offlineCheck(id, served[k]); err != nil {
			return err
		}
	}
	out.pass("%d sampled bounds are bit-identical to a fresh AnalyzeServer of their epoch", len(ids))

	// Restarts from the run's durable state: close (each writer takes a
	// final snapshot), reopen, first read. recover_s is the median. A
	// recovered shard analyzes at the capacity slice the ledger derives
	// at boot, which can differ from the slice the live shard had grown
	// to; a read is then checked against a fresh AnalyzeServer of the
	// recovered epoch instead, and every later restart must read
	// bit-identically to the first.
	rates := make([]float64, len(ids))
	for k, id := range ids {
		rates[k] = r.epochOf(id).Server.Rate
	}
	var opens []openCost
	var firsts []float64
	var first []boundsWire
	dir := r.node.dir
	sameRate := 0
	for k := 0; k < r.cfg.restarts; k++ {
		if err := r.node.close(); err != nil {
			return fmt.Errorf("restart %d: close: %w", k, err)
		}
		r.node = nil
		drainHeap()
		sw := startWatch()
		n, st, err := openHop(dir, r.spec.shards, r.scfg, r.tr, r.cfg.flip)
		if err != nil {
			return fmt.Errorf("restart %d: %w", k, err)
		}
		r.node = n
		opens = append(opens, st)
		c = client{n.h}
		readStart := time.Now()
		reads := make([]boundsWire, len(ids))
		for j, id := range ids {
			if reads[j], err = readBounds(c, id); err != nil {
				return err
			}
			if j == 0 {
				out.recover.add(sw)
				firsts = append(firsts, ms(time.Since(readStart)))
			}
		}
		if k > 0 {
			for j := range ids {
				if !sameBounds(reads[j], first[j]) {
					return failf("restart %d: session %s reads %+v, after the first restart %+v", k, ids[j], reads[j], first[j])
				}
			}
			continue
		}
		first = reads
		for j, id := range ids {
			if ep := r.epochOf(id); bitEq(ep.Server.Rate, rates[j]) {
				sameRate++
				if !sameBounds(reads[j], served[j]) {
					return failf("restart: session %s reads %+v, before the restart %+v", id, reads[j], served[j])
				}
			}
			if err := r.offlineCheck(id, reads[j]); err != nil {
				return err
			}
		}
	}
	out.pass("%d sampled bounds after restart match a fresh AnalyzeServer of the recovered epoch, %d of them (same capacity slice) bit-identical to before the restart, and read the same after each of %d restarts",
		len(ids), sameRate, r.cfg.restarts)
	recoverLayer(out, opens, firsts)
	return nil
}

func recoverLayer(out *outcome, opens []openCost, firsts []float64) {
	var walOpen, boot, replayed []float64
	for _, o := range opens {
		walOpen = append(walOpen, ms(o.walOpen))
		boot = append(boot, ms(o.boot))
		replayed = append(replayed, float64(o.replayed))
	}
	out.layer["recover.wal_open_ms"] = median(walOpen)
	out.layer["recover.boot_ms"] = median(boot)
	out.layer["recover.replayed_ops"] = median(replayed)
	out.layer["recover.first_read_ms"] = median(firsts)
}

// epochOf returns the current epoch of the shard holding id (nil if no
// shard's epoch has it).
func (r *hopRun) epochOf(id string) *server.Epoch {
	for s := 0; s < r.node.svc.Shards(); s++ {
		ep := r.node.svc.Shard(s).CurrentEpoch()
		if _, ok := ep.IndexOf(hopID(id)); ok {
			return ep
		}
	}
	return nil
}

// offlineCheck compares a served read with a fresh AnalyzeServer of the
// epoch that served it, in bits.
func (r *hopRun) offlineCheck(id string, got boundsWire) error {
	ep := r.epochOf(id)
	if ep == nil {
		return failf("session %s is in no shard's epoch", id)
	}
	i, _ := ep.IndexOf(hopID(id))
	an, err := gpsmath.AnalyzeServer(ep.Server, gpsmath.Options{Independent: true, Xi: gpsmath.XiOptimal})
	if err != nil {
		return failf("offline AnalyzeServer: %v", err)
	}
	if want := offlineBounds(ep, an, id, i); !sameBounds(got, want) || got.Epoch != want.Epoch {
		return failf("session %s: served bounds %+v differ from a fresh AnalyzeServer %+v", id, got, want)
	}
	return nil
}
