package server

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"
)

// TestBoundsForMatchesIndependentEvaluations pins the per-point
// de-duplication in Epoch.BoundsFor: every report field equals the
// separate BestDelayTailValue / BestBacklogTailValue evaluation bit for
// bit, at the default points (where the three values share one level
// per route) and at explicit points; distinct explicit points still get
// distinct evaluations.
func TestBoundsForMatchesIndependentEvaluations(t *testing.T) {
	d := newTestDaemon(t, Config{Rate: 60, MaxEpochAge: time.Hour, MaxBatch: 1 << 30})
	var ids []uint64
	for k := 0; k < 24; k++ {
		ids = append(ids, admitType(t, d, k))
	}
	ep := forceRebuild(t, d)
	an := ep.Analysis
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, id := range ids {
		i, ok := ep.IndexOf(id)
		if !ok {
			t.Fatalf("id %d not in the epoch", id)
		}
		g := an.PartitionBound(i).G
		td := ep.Targets[i].Delay
		for _, pt := range []struct{ q, d float64 }{{0, 0}, {2, 40}, {0, 15}, {7, 0}, {g * td, td}} {
			rep, ok := ep.BoundsFor(id, pt.q, pt.d)
			if !ok {
				t.Fatalf("id %d: BoundsFor refused a published session", id)
			}
			q, dly := pt.q, pt.d
			if dly == 0 {
				dly = td
			}
			if q == 0 {
				q = g * dly
			}
			want := []float64{an.BestBacklogTailValue(i, q), an.BestDelayTailValue(i, dly), an.BestDelayTailValue(i, td)}
			got := []float64{rep.BacklogProb, rep.DelayProb, rep.AchievedEps}
			for k := range want {
				if !same(got[k], want[k]) {
					t.Fatalf("id %d at q=%v d=%v: field %d = %v, independent evaluation %v", id, pt.q, pt.d, k, got[k], want[k])
				}
			}
			if rep.Q != q || rep.Delay != dly || rep.MeetsTarget != (want[2] <= rep.TargetEps) {
				t.Fatalf("id %d at q=%v d=%v: report %+v", id, pt.q, pt.d, rep)
			}
		}
		lo, _ := ep.BoundsFor(id, 0.5, 5)
		hi, _ := ep.BoundsFor(id, 200, 2000)
		if same(lo.BacklogProb, hi.BacklogProb) || same(lo.DelayProb, hi.DelayProb) {
			t.Fatalf("id %d: distinct explicit points read the same bound (%+v vs %+v)", id, lo, hi)
		}
		if !same(lo.AchievedEps, hi.AchievedEps) {
			t.Fatalf("id %d: achieved eps moved with the evaluation point", id)
		}
	}
}

// TestHTTPBoundsHeadMatchesGet: HEAD /v1/bounds/{id} answers with the
// status GET would — published, pending (425 with Retry-After), unknown,
// malformed id and malformed query — on a standalone daemon and on the
// sharded facade, and never carries a body.
func TestHTTPBoundsHeadMatchesGet(t *testing.T) {
	d := newTestDaemon(t, Config{Rate: 60, MaxEpochAge: time.Hour, MaxBatch: 1 << 30})
	s := newTestSharded(t, Config{Rate: 60, MaxEpochAge: time.Hour, MaxBatch: 1 << 30}, 3)
	for _, tc := range []struct {
		name    string
		svc     Service
		publish func()
	}{
		{"daemon", d, func() { forceRebuild(t, d) }},
		{"sharded", s, func() {
			if err := s.Rebuild(); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		ts := httptest.NewServer(NewHandler(tc.svc))
		defer ts.Close()
		var published []uint64
		for k := 0; k < 6; k++ {
			res, err := tc.svc.Admit(testTypes[k%len(testTypes)])
			if err != nil || !res.Admitted {
				t.Fatalf("%s: admit: %+v %v", tc.name, res, err)
			}
			published = append(published, res.ID)
		}
		tc.publish()
		res, err := tc.svc.Admit(testTypes[0])
		if err != nil || !res.Admitted {
			t.Fatalf("%s: admit: %+v %v", tc.name, res, err)
		}
		pending := strconv.FormatUint(res.ID, 10)
		paths := map[string]int{
			"/v1/bounds/" + pending:           http.StatusTooEarly,
			"/v1/bounds/987654321":            http.StatusNotFound,
			"/v1/bounds/abc":                  http.StatusBadRequest,
			"/v1/bounds/" + pending + "?q=-1": http.StatusBadRequest,
		}
		for _, id := range published {
			paths[fmt.Sprintf("/v1/bounds/%d", id)] = http.StatusOK
			paths[fmt.Sprintf("/v1/bounds/%d?d=-2", id)] = http.StatusBadRequest
		}
		for path, want := range paths {
			get := doMethod(t, http.MethodGet, ts.URL+path)
			req, err := http.NewRequest(http.MethodHead, ts.URL+path, nil)
			if err != nil {
				t.Fatal(err)
			}
			head, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("%s: HEAD %s: %v", tc.name, path, err)
			}
			body, _ := io.ReadAll(head.Body)
			head.Body.Close()
			if get.StatusCode != want || head.StatusCode != want {
				t.Fatalf("%s %s: GET %d, HEAD %d, want %d", tc.name, path, get.StatusCode, head.StatusCode, want)
			}
			if len(body) != 0 {
				t.Fatalf("%s: HEAD %s carried a %d-byte body", tc.name, path, len(body))
			}
			if want == http.StatusTooEarly && (get.Header.Get("Retry-After") == "" ||
				head.Header.Get("Retry-After") != get.Header.Get("Retry-After")) {
				t.Fatalf("%s %s: Retry-After GET %q, HEAD %q", tc.name, path, get.Header.Get("Retry-After"), head.Header.Get("Retry-After"))
			}
		}
		// The same statuses through a handler called directly, as an
		// in-process client would: HEAD writes no body there either.
		for path, want := range paths {
			rec := httptest.NewRecorder()
			NewHandler(tc.svc).ServeHTTP(rec, httptest.NewRequest(http.MethodHead, path, nil))
			if rec.Code != want || rec.Body.Len() != 0 {
				t.Fatalf("%s: in-process HEAD %s: status %d with %d body bytes, want %d and none", tc.name, path, rec.Code, rec.Body.Len(), want)
			}
		}
	}
}
