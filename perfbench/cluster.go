package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/network"
	"repro/internal/replication"
	"repro/internal/server"
	"repro/internal/wal"
)

// inproc is the coordinator's hop transport: it hands each request to
// the handler of the hop whose topology URL host matches, with no
// socket in between.
type inproc map[string]http.Handler

func (t inproc) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := t[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("no hop at %s", req.URL.Host)
	}
	if req.Body != nil {
		defer req.Body.Close()
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}

// coordNode is a journaled coordinator built the way gpsd
// -coord-wal-dir builds it: wal.WriteCoordMarker, wal.Open,
// replication.OpenAudit, cluster.New.
type coordNode struct {
	c     *cluster.Coordinator
	audit *replication.Audit
	h     http.Handler
}

func openCoord(dir string, topo cluster.Topology, rt http.RoundTripper, tr *tracer) (*coordNode, openCost, error) {
	var st openCost
	start := time.Now()
	isCoord, err := wal.IsCoordDir(dir)
	if err != nil {
		return nil, st, err
	}
	if !isCoord {
		if err := wal.WriteCoordMarker(dir); err != nil {
			return nil, st, fmt.Errorf("mark coordinator WAL: %w", err)
		}
	}
	log, rec, err := wal.Open(dir, wal.Options{Sync: wal.SyncBatch})
	if err != nil {
		return nil, st, fmt.Errorf("open coordinator journal: %w", err)
	}
	head := log.NextSeq() - 1
	audit, err := replication.OpenAudit(dir, replication.AuditOptions{WALHead: &head})
	if err != nil {
		return nil, st, fmt.Errorf("open coordinator audit trail: %w", err)
	}
	st.walOpen, st.replayed = time.Since(start), len(rec.Ops)
	ccfg := cluster.Config{Topology: topo, Client: &http.Client{Transport: rt}, Log: log, Recovered: rec, Audit: audit}
	if tr != nil {
		ccfg.Audit = tracedAudit{audit, tr}
	}
	start = time.Now()
	c, err := cluster.New(ccfg)
	if err != nil {
		return nil, st, fmt.Errorf("start coordinator: %w", err)
	}
	st.boot = time.Since(start)
	n := &coordNode{c: c, audit: audit, h: cluster.NewHandler(c)}
	if tr != nil {
		n.h = tracedCoord{n.h, tr}
	}
	return n, st, nil
}

func (n *coordNode) close() error { return errors.Join(n.c.Close(), n.audit.Close()) }

// clusterRun is the state of the cluster-tree workload.
type clusterRun struct {
	cfg      config
	topo     cluster.Topology
	tr       *tracer
	dir      string
	hops     []*hopNode
	rt       http.RoundTripper
	coord    *coordNode
	live     idSet
	released gone
	slot     map[string]int // live session id → its slot (see admitBody)
	rng      *rand.Rand
	n        int // sessions admitted so far, for names
}

// admitBody is a seeded end-to-end session for one of the population's
// slots. Slot k of n routes through node1 (even k) or node2 (odd k)
// into node3 and draws its ρ from the k-th of n equal strata of
// [0.002, 0.003]: every session has its own ρ, so no two share a type
// at any hop, while every seed loads the tree alike. The link rate is 1,
// so even 1.5× the population loads node3 below 0.7, and the target
// (delay 6000, ε = 1e-3) holds on the tree with margin.
func (r *clusterRun) admitBody(rng *rand.Rand, slot int) []byte {
	r.n++
	rho := 0.002 + 0.001*(float64(slot)+rng.Float64())/float64(r.cfg.clusterSessions)
	body, _ := json.Marshal(map[string]any{
		"name": fmt.Sprintf("s%d", r.n), "rho": rho, "lambda": 1, "alpha": 5,
		"delay": 6000, "eps": 1e-3, "route": []int{slot % 2, 2},
	})
	return body
}

// runCluster runs cluster-tree on the paper's §6.3 tree (node1 and
// node2 feed node3), served by three in-process hops and a journaled
// coordinator.
func runCluster(cfg config, out *outcome) error {
	topo, err := cluster.LoadTopology(cfg.topology)
	if err != nil {
		return err
	}
	r := &clusterRun{cfg: cfg, topo: topo, tr: out.tr}
	defer r.close()
	for s := 0; s < cfg.setups; s++ {
		if err := r.close(); err != nil {
			return err
		}
		r.dir = filepath.Join(cfg.dir, fmt.Sprintf("cluster-%d", s))
		drainHeap()
		sw := startWatch()
		if err := r.stage(); err != nil {
			return err
		}
		out.setup.add(sw)
	}
	r.rng = rand.New(rand.NewPCG(cfg.seed, 2))
	for i := 0; i < cfg.warmup; i++ {
		if err := r.iterate(&loopStats{}); err != nil {
			return err
		}
	}
	out.counters = func() map[string]float64 { return epochCounters(r.hops) }
	if err := timedLoops(cfg, out, r.iterate); err != nil {
		return err
	}
	return r.check(out)
}

// stage opens three fresh hops and a fresh coordinator in r.dir, admits
// the seeded population end to end, and publishes every hop once.
func (r *clusterRun) stage() error {
	rt := inproc{}
	r.hops = nil
	for m, node := range r.topo.Nodes {
		hop, _, err := openHop(filepath.Join(r.dir, node.Name), 1, server.Config{
			Rate: node.Rate, QueueDepth: 1 << 14, MaxBatch: 1 << 30, MaxEpochAge: time.Hour,
		}, r.tr, false)
		if err != nil {
			return fmt.Errorf("hop %d: %w", m, err)
		}
		r.hops = append(r.hops, hop)
		u, err := url.Parse(node.URL)
		if err != nil {
			return err
		}
		rt[u.Host] = hop.h
	}
	r.rt = rt
	if r.tr != nil {
		r.rt = tracedRT{rt, r.tr}
	}
	coordDir := filepath.Join(r.dir, "coord")
	if err := os.MkdirAll(coordDir, 0o755); err != nil {
		return err
	}
	coord, _, err := openCoord(coordDir, r.topo, r.rt, r.tr)
	if err != nil {
		return err
	}
	r.coord = coord
	r.live, r.released, r.slot, r.n = idSet{}, gone{}, map[string]int{}, 0
	rng := rand.New(rand.NewPCG(r.cfg.seed, 1))
	c := client{coord.h}
	for _, k := range rng.Perm(r.cfg.clusterSessions) {
		id, err := admittedID(c.call(http.MethodPost, "/v1/cluster/admit", r.admitBody(rng, k)))
		if err != nil {
			return fmt.Errorf("staging: %w", err)
		}
		r.live.add(id)
		r.slot[id] = k
	}
	return r.publish()
}

func (r *clusterRun) publish() error {
	start := time.Now()
	for m, h := range r.hops {
		if err := h.rebuild(r.tr); err != nil {
			return fmt.Errorf("publish hop %d: %w", m, err)
		}
	}
	r.tr.add("hop.publish", time.Since(start))
	return nil
}

// iterate is one closed-loop step: admit end to end into the slot of a
// seeded live session (so the population's mix never drifts), release
// that session, read a seeded live session's route bounds
// (reanalyzed, since the release invalidated the coordinator's cached
// analysis), and publish every hop.
func (r *clusterRun) iterate(st *loopStats) error {
	c := client{r.coord.h}
	j := r.live.pick(r.rng)
	victim := r.live.ids[j]
	body := r.admitBody(r.rng, r.slot[victim])
	sw := startWatch()
	id, err := admittedID(c.call(http.MethodPost, "/v1/cluster/admit", body))
	st.admit.add(sw)
	if st.op(err) {
		r.live.add(id)
		r.slot[id] = r.slot[victim]
	}
	sw = startWatch()
	code, resp := c.call(http.MethodDelete, "/v1/cluster/sessions/"+victim, nil)
	st.release.add(sw)
	if st.op(statusErr("release", code, resp)) {
		r.released.add(r.rng, r.live.removeAt(j))
		delete(r.slot, victim)
	}
	id = r.live.ids[r.live.pick(r.rng)]
	sw = startWatch()
	code, resp = c.call(http.MethodGet, "/v1/route-bounds/"+id, nil)
	st.bounds.add(sw)
	st.op(statusErr("route-bounds", code, resp))
	return r.publish()
}

func (r *clusterRun) close() error {
	var err error
	if r.coord != nil {
		err = r.coord.close()
		r.coord = nil
	}
	for _, h := range r.hops {
		err = errors.Join(err, h.close())
	}
	r.hops = nil
	return err
}

// routeBoundsWire is GET /v1/route-bounds/{id}.
type routeBoundsWire struct {
	ID  string `json:"id"`
	E2E struct {
		Delay        float64 `json:"delay"`
		Eps          float64 `json:"eps"`
		AchievedEps  float64 `json:"achieved_eps"`
		EnvPrefactor float64 `json:"env_prefactor"`
		EnvRate      float64 `json:"env_rate"`
	} `json:"e2e"`
	Hops []struct {
		Node      int     `json:"node"`
		HopID     string  `json:"hop_id"`
		G         float64 `json:"g"`
		Theta     float64 `json:"theta"`
		Prefactor float64 `json:"prefactor"`
		Rate      float64 `json:"rate"`
	} `json:"hops"`
}

func readRouteBounds(c client, id string) (routeBoundsWire, []byte, error) {
	code, body := c.call(http.MethodGet, "/v1/route-bounds/"+id, nil)
	if code != http.StatusOK {
		return routeBoundsWire{}, nil, failf("GET /v1/route-bounds/%s: HTTP %d", id, code)
	}
	var b routeBoundsWire
	if err := json.Unmarshal(body, &b); err != nil {
		return routeBoundsWire{}, nil, failf("GET /v1/route-bounds/%s: decode: %v", id, err)
	}
	return b, body, nil
}

// matchCRST compares a served route bound with session i of an offline
// CRST analysis, in bits.
func matchCRST(got routeBoundsWire, an *network.CRSTAnalysis, i int) error {
	env := an.EndToEndDelayExpTail(i)
	if !bitEq(got.E2E.AchievedEps, an.EndToEndDelayTail(i)(got.E2E.Delay)) ||
		!bitEq(got.E2E.EnvPrefactor, env.Prefactor) || !bitEq(got.E2E.EnvRate, env.Rate) {
		return failf("session %s: end-to-end bound differs from the offline CRST analysis", got.ID)
	}
	if len(got.Hops) != len(an.Hops[i]) {
		return failf("session %s: %d hops served, offline has %d", got.ID, len(got.Hops), len(an.Hops[i]))
	}
	for k, hb := range an.Hops[i] {
		h := got.Hops[k]
		if h.Node != hb.Node || !bitEq(h.G, hb.G) || !bitEq(h.Theta, hb.Theta) ||
			!bitEq(h.Prefactor, hb.Delay.Prefactor) || !bitEq(h.Rate, hb.Delay.Rate) {
			return failf("session %s: hop %d differs from the offline CRST analysis", got.ID, k)
		}
	}
	return nil
}

// check is the cluster-tree correctness gate, followed by the timed
// coordinator restarts that give recover_s.
func (r *clusterRun) check(out *outcome) error {
	c := client{r.coord.h}
	if err := r.publish(); err != nil {
		return err
	}
	perHop := make([]int, len(r.hops))
	for _, id := range r.live.ids {
		b, _, err := readRouteBounds(c, id)
		if err != nil {
			return err
		}
		for _, h := range b.Hops {
			perHop[h.Node]++
		}
	}
	out.pass("all %d acknowledged end-to-end sessions serve route bounds", r.live.len())
	for _, id := range r.released.ids {
		if code, _ := c.call(http.MethodGet, "/v1/route-bounds/"+id, nil); code != http.StatusNotFound {
			return failf("released session %s answers HTTP %d, want 404", id, code)
		}
	}
	out.pass("%d sampled released sessions answer 404", len(r.released.ids))

	if r.coord.c.Sessions() != r.live.len() {
		return failf("coordinator holds %d sessions, client holds %d", r.coord.c.Sessions(), r.live.len())
	}
	for m, h := range r.hops {
		if got := h.svc.Health().Sessions; got != perHop[m] {
			return failf("hop %s: Health().Sessions = %d, client routes %d sessions through it", r.topo.Nodes[m].Name, got, perHop[m])
		}
	}
	out.pass("coordinator and per-hop Health().Sessions equal the client's live sessions (%d end to end)", r.live.len())

	ids := sample(rand.New(rand.NewPCG(r.cfg.seed, 3)), r.live.ids, r.cfg.samples)
	served := make([]routeBoundsWire, len(ids))
	raw := make([][]byte, len(ids))
	for k, id := range ids {
		var err error
		if served[k], raw[k], err = readRouteBounds(c, id); err != nil {
			return err
		}
	}

	// The CRST layer, timed as the coordinator runs it: AnalyzeCRST of the
	// network the journal folds to, with every hop and the coordinator
	// still live, so the collector paces it as it paces the loop.
	coordDir := filepath.Join(r.dir, "coord")
	if r.tr != nil {
		fold, err := foldJournal(coordDir)
		if err != nil {
			return err
		}
		nw := cluster.BuildNetwork(r.topo, fold.Sessions)
		var crst []float64
		for k := 0; k < 9; k++ {
			start := time.Now()
			if _, err := nw.AnalyzeCRST(network.CRSTOptions{}); err != nil {
				return failf("offline AnalyzeCRST: %v", err)
			}
			crst = append(crst, ms(time.Since(start)))
		}
		out.layer["crst.analyze_ms_p50"] = median(crst)
	}

	// The journal, folded offline, must reproduce the served bounds.
	if err := r.coord.close(); err != nil {
		return fmt.Errorf("close coordinator: %w", err)
	}
	r.coord = nil
	fold, err := foldJournal(coordDir)
	if err != nil {
		return err
	}
	an, err := cluster.BuildNetwork(r.topo, fold.Sessions).AnalyzeCRST(network.CRSTOptions{})
	if err != nil {
		return failf("offline AnalyzeCRST: %v", err)
	}
	index := make(map[string]int, len(fold.Sessions))
	for i, s := range fold.Sessions {
		index[fmt.Sprint(s.ID)] = i
	}
	for k, id := range ids {
		i, ok := index[id]
		if !ok {
			return failf("session %s is missing from the folded journal", id)
		}
		if err := matchCRST(served[k], an, i); err != nil {
			return err
		}
	}
	out.pass("%d sampled route bounds are bit-identical to AnalyzeCRST of the folded journal", len(ids))

	// Restarts: journal open, cluster.New (fold + reconcile probes against
	// the live hops), first route-bounds read.
	var rw *window
	if r.tr != nil {
		rw = newWindow()
		r.tr.record(rw)
	}
	var opens []openCost
	var firsts []float64
	for k := 0; k < r.cfg.restarts; k++ {
		if r.coord != nil {
			if err := r.coord.close(); err != nil {
				return fmt.Errorf("restart %d: close: %w", k, err)
			}
			r.coord = nil
		}
		drainHeap()
		sw := startWatch()
		coord, st, err := openCoord(coordDir, r.topo, r.rt, r.tr)
		if err != nil {
			return fmt.Errorf("restart %d: %w", k, err)
		}
		r.coord = coord
		opens = append(opens, st)
		c = client{coord.h}
		readStart := time.Now()
		for j, id := range ids {
			_, body, err := readRouteBounds(c, id)
			if err != nil {
				return err
			}
			if j == 0 {
				out.recover.add(sw)
				firsts = append(firsts, ms(time.Since(readStart)))
			}
			if string(body) != string(raw[j]) {
				return failf("restart %d: session %s reads %s, before the restart %s", k, id, body, raw[j])
			}
		}
		if m := coord.c.Metrics(); m.ReconcileDrops.Load() != 0 || m.OrphanReleases.Load() != 0 {
			return failf("restart %d: reconcile dropped %d sessions and released %d orphans, want none",
				k, m.ReconcileDrops.Load(), m.OrphanReleases.Load())
		}
	}
	if r.tr != nil {
		r.tr.record(nil)
		probes := rw.samples["hop_rpc.probe"]
		out.layer["recover.probe_calls"] = float64(len(probes)) / float64(r.cfg.restarts)
		out.layer["recover.probe_ms_p50"] = median(probes)
	}
	out.pass("%d sampled route bounds read byte-identically after each of %d coordinator restarts", len(ids), r.cfg.restarts)
	recoverLayer(out, opens, firsts)
	return nil
}

// foldJournal folds a coordinator journal, as a restarted coordinator
// and tools/walcheck do.
func foldJournal(dir string) (wal.RouteState, error) {
	rec, err := wal.Read(dir)
	if err != nil {
		return wal.RouteState{}, fmt.Errorf("read journal: %w", err)
	}
	fold, err := wal.FoldRoutes(rec.Ops)
	if err != nil {
		return wal.RouteState{}, failf("fold journal: %v", err)
	}
	return fold, nil
}
