package admin

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/pml-mpi/pmlmpi/pkg/bundle"
	"github.com/pml-mpi/pmlmpi/pkg/cache"
	"github.com/pml-mpi/pmlmpi/pkg/obs"
	"github.com/pml-mpi/pmlmpi/pkg/selector"
)

const realBundle = "../../.pmlbench/bundle_all_full.json"

var alltoallFeatures = map[string]float64{
	"log2_msg_size": 22,
	"ppn":           48,
	"num_nodes":     32,
	"mem_bw_gbs":    204.8,
	"thread_count":  96,
}

func newTestServer(t *testing.T) (*Server, *selector.Selector, *obs.Obs) {
	t.Helper()
	b, err := bundle.Load(realBundle)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	o := obs.NewForTest()
	sel := selector.New(b, o, selector.Config{RingSize: 8})
	return New(sel, o, Config{}), sel, o
}

func get(t *testing.T, srv http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

func TestMetricsEndpointIncludesEveryRegisteredInstrument(t *testing.T) {
	srv, sel, o := newTestServer(t)

	// One real selection so the selection counter and latency histogram
	// have series, then one admin request for the HTTP instruments.
	if _, err := sel.Select(context.Background(), "alltoall", alltoallFeatures); err != nil {
		t.Fatalf("Select: %v", err)
	}
	get(t, srv, "/healthz")

	rec := get(t, srv, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	body := rec.Body.String()

	// Every family registered anywhere in the process must be exposed.
	for _, name := range o.Registry.FamilyNames() {
		if !strings.Contains(body, "# TYPE "+name+" ") {
			t.Errorf("/metrics missing registered family %q", name)
		}
	}

	// The acceptance-criteria instruments, with live series.
	for _, want := range []string{
		`pmlmpi_selections_total{collective="alltoall",algorithm="pairwise"} 1`,
		`pmlmpi_select_duration_seconds_count{collective="alltoall",path="cold"} 1`,
		`pmlmpi_forest_predict_duration_seconds_count{collective="alltoall"} 1`,
		"pmlmpi_bundle_loaded 1",
		`pmlmpi_bundle_forest_trees{collective="allgather"} 60`,
		`pmlmpi_bundle_forest_trees{collective="alltoall"} 100`,
		`pmlmpi_http_requests_total{path="/healthz",code="200"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}
}

func TestHealthz(t *testing.T) {
	srv, _, _ := newTestServer(t)
	rec := get(t, srv, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("/healthz status = %d", rec.Code)
	}
	var h Health
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatalf("healthz not JSON: %v", err)
	}
	if h.Status != "ok" || !h.BundleLoaded {
		t.Errorf("health = %+v, want ok/loaded", h)
	}
	if h.ModelVersion != bundle.SupportedVersion {
		t.Errorf("model version = %q, want %q", h.ModelVersion, bundle.SupportedVersion)
	}
	if len(h.TrainedOn) != 18 {
		t.Errorf("trained_on has %d systems, want 18", len(h.TrainedOn))
	}
	ag, ok := h.Collectives["allgather"]
	if !ok || ag.Trees != 60 || ag.Classes != 4 {
		t.Errorf("allgather summary = %+v", ag)
	}
	if rec.Header().Get("X-Request-Id") == "" {
		t.Error("response missing X-Request-Id header")
	}
}

func TestDebugDecisionsShowsSelections(t *testing.T) {
	srv, sel, _ := newTestServer(t)
	d, err := sel.Select(context.Background(), "alltoall", alltoallFeatures)
	if err != nil {
		t.Fatalf("Select: %v", err)
	}

	rec := get(t, srv, "/debug/decisions")
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/decisions status = %d", rec.Code)
	}
	var resp struct {
		Count     int                 `json:"count"`
		Decisions []selector.Decision `json:"decisions"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decisions not JSON: %v", err)
	}
	if resp.Count != 1 || len(resp.Decisions) != 1 {
		t.Fatalf("count = %d, want 1", resp.Count)
	}
	got := resp.Decisions[0]
	if got.Collective != "alltoall" || got.Algorithm != d.Algorithm || got.Class != d.Class {
		t.Errorf("decision = %+v, want algorithm %q class %d", got, d.Algorithm, d.Class)
	}
	if got.Features["ppn"] != 48 {
		t.Errorf("features not recorded: %v", got.Features)
	}
	if len(got.Votes) != 5 {
		t.Errorf("vote split = %v, want 5 classes", got.Votes)
	}
	if got.LatencyNS <= 0 {
		t.Error("latency not recorded")
	}

	// Limit query works.
	sel.Select(context.Background(), "alltoall", alltoallFeatures)
	rec = get(t, srv, "/debug/decisions?n=1")
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 1 {
		t.Errorf("n=1 returned %d decisions", resp.Count)
	}

	if rec := get(t, srv, "/debug/decisions?n=bogus"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad n should be 400, got %d", rec.Code)
	}
}

func TestSelectEndpoint(t *testing.T) {
	srv, _, _ := newTestServer(t)

	body := `{"collective": "alltoall", "features": {"log2_msg_size": 22, "ppn": 48, "num_nodes": 32, "mem_bw_gbs": 204.8, "thread_count": 96}}`
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/select", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/select status = %d: %s", rec.Code, rec.Body.String())
	}
	var d selector.Decision
	if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
		t.Fatalf("response not JSON: %v", err)
	}
	// Golden case: this vector is a near-unanimous pairwise (class 1) pick.
	if d.Algorithm != "pairwise" || d.Class != 1 {
		t.Errorf("selection = %q class %d, want pairwise class 1", d.Algorithm, d.Class)
	}

	// Error paths.
	if rec := get(t, srv, "/v1/select"); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET should be 405, got %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/select", strings.NewReader("{nope")))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("malformed body should be 400, got %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/select",
		strings.NewReader(`{"collective": "broadcast", "features": {}}`)))
	if rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("unknown collective should be 422, got %d", rec.Code)
	}
}

func post(t *testing.T, srv http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

func TestSelectEndpointsRejectNonPOSTWithAllowHeader(t *testing.T) {
	srv, _, _ := newTestServer(t)
	for _, path := range []string{"/v1/select", "/v1/select/batch"} {
		for _, method := range []string{http.MethodGet, http.MethodPut, http.MethodDelete} {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
			if rec.Code != http.StatusMethodNotAllowed {
				t.Errorf("%s %s = %d, want 405", method, path, rec.Code)
			}
			if got := rec.Header().Get("Allow"); got != http.MethodPost {
				t.Errorf("%s %s Allow header = %q, want POST", method, path, got)
			}
		}
	}
}

func TestSelectBatchErrorPaths(t *testing.T) {
	goodItem := `{"collective":"alltoall","features":{"log2_msg_size":22,"ppn":48,"num_nodes":32,"mem_bw_gbs":204.8,"thread_count":96}}`
	oversized := `{"requests":[` + goodItem
	for i := 0; i < MaxBatchItems; i++ {
		oversized += "," + goodItem
	}
	oversized += `]}`

	tests := []struct {
		name       string
		body       string
		wantCode   int
		wantErrSub string // substring of the top-level "error" field
		wantItems  int    // for 200 responses: expected results length
		wantItem0  string // for 200 responses: substring of results[0].error ("" = success)
	}{
		{
			name:       "bad JSON",
			body:       `{"requests": [{"collective"`,
			wantCode:   http.StatusBadRequest,
			wantErrSub: "bad request body",
		},
		{
			name:       "empty batch",
			body:       `{"requests": []}`,
			wantCode:   http.StatusBadRequest,
			wantErrSub: "empty batch",
		},
		{
			name:       "missing requests field",
			body:       `{}`,
			wantCode:   http.StatusBadRequest,
			wantErrSub: "empty batch",
		},
		{
			name:       "oversized batch",
			body:       oversized,
			wantCode:   http.StatusBadRequest,
			wantErrSub: fmt.Sprintf("limit of %d", MaxBatchItems),
		},
		{
			name:      "unknown collective reported per item",
			body:      `{"requests": [{"collective": "broadcast", "features": {}}, ` + goodItem + `]}`,
			wantCode:  http.StatusOK,
			wantItems: 2,
			wantItem0: "unknown collective",
		},
		{
			name:      "missing feature reported per item",
			body:      `{"requests": [{"collective": "alltoall", "features": {"ppn": 4}}]}`,
			wantCode:  http.StatusOK,
			wantItems: 1,
			wantItem0: "missing feature",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			srv, _, _ := newTestServer(t)
			rec := post(t, srv, "/v1/select/batch", tc.body)
			if rec.Code != tc.wantCode {
				t.Fatalf("status = %d, want %d: %s", rec.Code, tc.wantCode, rec.Body.String())
			}
			if tc.wantCode != http.StatusOK {
				var e map[string]string
				if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
					t.Fatalf("error response not JSON: %v", err)
				}
				if !strings.Contains(e["error"], tc.wantErrSub) {
					t.Errorf("error = %q, want substring %q", e["error"], tc.wantErrSub)
				}
				return
			}
			var resp batchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("response not JSON: %v", err)
			}
			if resp.Count != tc.wantItems || len(resp.Results) != tc.wantItems {
				t.Fatalf("count = %d (results %d), want %d", resp.Count, len(resp.Results), tc.wantItems)
			}
			if tc.wantItem0 != "" && !strings.Contains(resp.Results[0].Error, tc.wantItem0) {
				t.Errorf("results[0].error = %q, want substring %q", resp.Results[0].Error, tc.wantItem0)
			}
		})
	}
}

func TestSelectBatchSuccess(t *testing.T) {
	srv, _, _ := newTestServer(t)
	item := `{"collective":"alltoall","features":{"log2_msg_size":22,"ppn":48,"num_nodes":32,"mem_bw_gbs":204.8,"thread_count":96}}`
	rec := post(t, srv, "/v1/select/batch", `{"requests":[`+item+`,`+item+`]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp batchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 2 || resp.Errors != 0 {
		t.Fatalf("count=%d errors=%d, want 2/0", resp.Count, resp.Errors)
	}
	for i, r := range resp.Results {
		if r.Decision == nil || r.Decision.Algorithm != "pairwise" || r.Decision.Class != 1 {
			t.Errorf("results[%d] = %+v, want pairwise class 1", i, r)
		}
	}
}

func TestMetricsExposeCacheAndBatchInstruments(t *testing.T) {
	// A server wired like production (cache enabled) must surface the
	// cache hit/miss/eviction counters and batch instruments on /metrics.
	b, err := bundle.Load(realBundle)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	o := obs.NewForTest()
	sel := selector.New(b, o, selector.Config{
		Cache: cache.New(cache.Config{MaxEntries: 1024}, o.Registry),
	})
	srv := New(sel, o, Config{})

	item := `{"collective":"alltoall","features":{"log2_msg_size":22,"ppn":48,"num_nodes":32,"mem_bw_gbs":204.8,"thread_count":96}}`
	post(t, srv, "/v1/select", item)                            // miss
	post(t, srv, "/v1/select", item)                            // hit
	post(t, srv, "/v1/select/batch", `{"requests":[`+item+`]}`) // hit via batch

	body := get(t, srv, "/metrics").Body.String()
	for _, want := range []string{
		"pmlmpi_cache_hits_total 2",
		"pmlmpi_cache_misses_total 1",
		"# TYPE pmlmpi_cache_evictions_total counter",
		"pmlmpi_cache_entries 1",
		"pmlmpi_batch_requests_total 1",
		"pmlmpi_batch_size_items_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestRequestIDPropagation(t *testing.T) {
	srv, sel, _ := newTestServer(t)
	req := httptest.NewRequest(http.MethodPost, "/v1/select", strings.NewReader(
		`{"collective": "alltoall", "features": {"log2_msg_size": 10, "ppn": 16, "num_nodes": 8, "mem_bw_gbs": 100, "thread_count": 64}}`))
	req.Header.Set("X-Request-Id", "caller-supplied-id")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if got := rec.Header().Get("X-Request-Id"); got != "caller-supplied-id" {
		t.Errorf("response request ID = %q, want caller's", got)
	}
	recent := sel.Recent(1)
	if len(recent) != 1 || recent[0].RequestID != "caller-supplied-id" {
		t.Errorf("decision request ID = %+v, want caller-supplied-id", recent)
	}
}

var allgatherFeatures = map[string]float64{
	"log2_msg_size": 20,
	"ppn":           32,
	"num_nodes":     64,
	"thread_count":  128,
	"l3_cache_mib":  24,
}

func TestDebugDecisionsFilters(t *testing.T) {
	srv, sel, _ := newTestServer(t)
	ctx := context.Background()
	// Three alltoall then two allgather selections, so newest-first order
	// and the per-collective filter are both observable.
	for i := 0; i < 3; i++ {
		if _, err := sel.Select(ctx, "alltoall", alltoallFeatures); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := sel.Select(ctx, "allgather", allgatherFeatures); err != nil {
			t.Fatal(err)
		}
	}

	tests := []struct {
		name           string
		query          string
		wantCode       int
		wantCount      int
		wantCollective string // "" = mixed
	}{
		{name: "no filters", query: "", wantCode: http.StatusOK, wantCount: 5},
		{name: "limit", query: "?limit=2", wantCode: http.StatusOK, wantCount: 2, wantCollective: "allgather"},
		{name: "legacy n alias", query: "?n=2", wantCode: http.StatusOK, wantCount: 2, wantCollective: "allgather"},
		{name: "collective filter", query: "?collective=alltoall", wantCode: http.StatusOK, wantCount: 3, wantCollective: "alltoall"},
		{name: "collective plus limit", query: "?collective=alltoall&limit=1", wantCode: http.StatusOK, wantCount: 1, wantCollective: "alltoall"},
		{name: "unknown collective empty", query: "?collective=broadcast", wantCode: http.StatusOK, wantCount: 0},
		{name: "bad limit", query: "?limit=-1", wantCode: http.StatusBadRequest},
		{name: "malformed limit", query: "?limit=lots", wantCode: http.StatusBadRequest},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			rec := get(t, srv, "/debug/decisions"+tc.query)
			if rec.Code != tc.wantCode {
				t.Fatalf("status = %d, want %d: %s", rec.Code, tc.wantCode, rec.Body.String())
			}
			if tc.wantCode != http.StatusOK {
				return
			}
			var resp struct {
				Count     int                 `json:"count"`
				Decisions []selector.Decision `json:"decisions"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("not JSON: %v", err)
			}
			if resp.Count != tc.wantCount || len(resp.Decisions) != tc.wantCount {
				t.Fatalf("count = %d (decisions %d), want %d", resp.Count, len(resp.Decisions), tc.wantCount)
			}
			if tc.wantCollective != "" {
				for i, d := range resp.Decisions {
					if d.Collective != tc.wantCollective {
						t.Errorf("decisions[%d].collective = %q, want %q", i, d.Collective, tc.wantCollective)
					}
				}
			}
		})
	}
}

func TestDebugTracesServesCompleteSpanTree(t *testing.T) {
	srv, _, o := newTestServer(t)
	o.Traces.SetSampleRate(1)

	body := `{"collective": "alltoall", "features": {"log2_msg_size": 22, "ppn": 48, "num_nodes": 32, "mem_bw_gbs": 204.8, "thread_count": 96}}`
	if rec := post(t, srv, "/v1/select", body); rec.Code != http.StatusOK {
		t.Fatalf("/v1/select status = %d", rec.Code)
	}

	rec := get(t, srv, "/debug/traces")
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/traces status = %d", rec.Code)
	}
	var list struct {
		SampleRate float64            `json:"sample_rate"`
		Count      int                `json:"count"`
		Traces     []obs.TraceSummary `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatalf("list not JSON: %v", err)
	}
	if list.SampleRate != 1 {
		t.Errorf("sample_rate = %v, want 1", list.SampleRate)
	}
	if list.Count != 1 || len(list.Traces) != 1 {
		t.Fatalf("count = %d, want exactly the one sampled trace", list.Count)
	}
	sum := list.Traces[0]
	if sum.Root != "selector.decide" || sum.Spans < 3 {
		t.Fatalf("summary = %+v, want root selector.decide with >= 3 spans", sum)
	}

	// Fetch the full tree and check its shape: feature.extract and
	// forest.eval must both be children of the selector.decide root.
	rec = get(t, srv, "/debug/traces?id="+sum.TraceID)
	if rec.Code != http.StatusOK {
		t.Fatalf("fetch status = %d", rec.Code)
	}
	var tr obs.Trace
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
		t.Fatalf("trace not JSON: %v", err)
	}
	spans := map[string]obs.SpanRecord{}
	for _, sp := range tr.Spans {
		spans[sp.Name] = sp
	}
	root, ok := spans["selector.decide"]
	if !ok || root.ParentID != "" {
		t.Fatalf("missing parentless selector.decide root in %+v", tr.Spans)
	}
	for _, child := range []string{"feature.extract", "forest.eval"} {
		sp, ok := spans[child]
		if !ok {
			t.Errorf("span tree missing %q", child)
			continue
		}
		if sp.ParentID != root.SpanID {
			t.Errorf("%s parent = %q, want root %q", child, sp.ParentID, root.SpanID)
		}
	}

	// Error paths: unknown ID is a JSON 404, bad limit a 400.
	if rec := get(t, srv, "/debug/traces?id=tr-nope"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown id should be 404, got %d", rec.Code)
	}
	if rec := get(t, srv, "/debug/traces?limit=bogus"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad limit should be 400, got %d", rec.Code)
	}
}

func TestDebugTracesLimit(t *testing.T) {
	srv, sel, o := newTestServer(t)
	o.Traces.SetSampleRate(1)
	for i := 0; i < 4; i++ {
		if _, err := sel.Select(context.Background(), "alltoall", alltoallFeatures); err != nil {
			t.Fatal(err)
		}
	}
	rec := get(t, srv, "/debug/traces?limit=2")
	var list struct {
		Count  int                `json:"count"`
		Traces []obs.TraceSummary `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if list.Count != 2 {
		t.Errorf("limit=2 returned %d traces", list.Count)
	}
}

func TestDebugAnalytics(t *testing.T) {
	b, err := bundle.Load(realBundle)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	o := obs.NewForTest()
	sel := selector.New(b, o, selector.Config{
		Cache: cache.New(cache.Config{MaxEntries: 1024}, o.Registry),
	})
	srv := New(sel, o, Config{})

	ctx := context.Background()
	for i := 0; i < 3; i++ { // one cold + two cache hits
		if _, err := sel.Select(ctx, "alltoall", alltoallFeatures); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sel.Select(ctx, "allgather", allgatherFeatures); err != nil {
		t.Fatal(err)
	}

	rec := get(t, srv, "/debug/analytics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/analytics status = %d", rec.Code)
	}
	var resp struct {
		Count int `json:"count"`
		Rows  []struct {
			Collective string  `json:"collective"`
			Algorithm  string  `json:"algorithm"`
			Count      uint64  `json:"count"`
			CacheHits  uint64  `json:"cache_hits"`
			Share      float64 `json:"share"`
			P99US      float64 `json:"p99_us"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("analytics not JSON: %v", err)
	}
	if resp.Count != 2 || len(resp.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (one per collective): %s", resp.Count, rec.Body.String())
	}
	// Sorted by collective: allgather first.
	ag, at := resp.Rows[0], resp.Rows[1]
	if ag.Collective != "allgather" || ag.Algorithm != "bruck" || ag.Count != 1 || ag.Share != 1 {
		t.Errorf("allgather row = %+v", ag)
	}
	if at.Collective != "alltoall" || at.Algorithm != "pairwise" || at.Count != 3 || at.CacheHits != 2 {
		t.Errorf("alltoall row = %+v", at)
	}
	if at.P99US <= 0 {
		t.Errorf("alltoall p99 = %v, want > 0", at.P99US)
	}
}

func TestPprofGatedByConfig(t *testing.T) {
	b, err := bundle.Load(realBundle)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	o := obs.NewForTest()
	sel := selector.New(b, o, selector.Config{})

	off := New(sel, o, Config{})
	if rec := get(t, off, "/debug/pprof/"); rec.Code != http.StatusNotFound {
		t.Errorf("pprof off: /debug/pprof/ = %d, want 404", rec.Code)
	}

	on := New(sel, obs.NewForTest(), Config{Pprof: true})
	if rec := get(t, on, "/debug/pprof/"); rec.Code != http.StatusOK {
		t.Errorf("pprof on: /debug/pprof/ = %d, want 200", rec.Code)
	}
	rec := get(t, on, "/debug/pprof/cmdline")
	if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
		t.Errorf("pprof on: /debug/pprof/cmdline = %d with %d bytes", rec.Code, rec.Body.Len())
	}
}
