package admin

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/pml-mpi/pmlmpi/pkg/bundle"
	"github.com/pml-mpi/pmlmpi/pkg/cache"
	"github.com/pml-mpi/pmlmpi/pkg/obs"
	"github.com/pml-mpi/pmlmpi/pkg/selector"
)

// batchItemResponse and batchResponse are the /v1/select/batch schema as
// reflection-based encoding/json sees it: the tests decode responses into
// them and compare the hand-written envelope against their encoding.
type batchItemResponse struct {
	Decision *selector.Decision `json:"decision,omitempty"`
	Error    string             `json:"error,omitempty"`
}

type batchResponse struct {
	Count   int                 `json:"count"`
	Errors  int                 `json:"errors"`
	Results []batchItemResponse `json:"results"`
}

func TestBatchEnvelopeMatchesReflectionEncoding(t *testing.T) {
	d := &selector.Decision{
		Time:       time.Date(2024, 5, 1, 12, 0, 0, 123456789, time.UTC),
		RequestID:  "req-1",
		Collective: "alltoall",
		Features:   map[string]float64{"ppn": 48, "log2_msg_size": 22, "mem_bw_gbs": 204.8},
		Algorithm:  "pairwise",
		Class:      1,
		Probs:      []float64{0.01, 0.94, 0.03, 0, 0.02},
		Votes:      []int{1, 94, 3, 0, 2},
		Margin:     0.91,
		LatencyNS:  12345,
		Generation: 3,
		Cached:     true,
	}
	results := []selector.BatchResult{
		{Decision: d},
		{Err: errors.New(`unknown collective "<nope>" & friends`)},
		{Decision: d},
	}
	got, err := appendBatchResponse(nil, results)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(batchResponse{Count: 3, Errors: 1, Results: []batchItemResponse{
		{Decision: d}, {Error: results[1].Err.Error()}, {Decision: d},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("batch envelope differs from encoding/json:\n got %s\nwant %s", got, want)
	}

	var resp batchResponse
	if err := json.Unmarshal(got, &resp); err != nil {
		t.Fatalf("envelope does not decode: %v", err)
	}
	if resp.Count != 3 || resp.Errors != 1 || len(resp.Results) != 3 {
		t.Fatalf("count=%d errors=%d results=%d, want 3/1/3", resp.Count, resp.Errors, len(resp.Results))
	}
	if resp.Results[1].Error != results[1].Err.Error() || resp.Results[1].Decision != nil {
		t.Errorf("results[1] = %+v, want the error message verbatim", resp.Results[1])
	}
	for _, i := range []int{0, 2} {
		if !reflect.DeepEqual(resp.Results[i].Decision, d) {
			t.Errorf("results[%d].decision = %+v, want %+v", i, resp.Results[i].Decision, d)
		}
	}
}

func TestWriteJSONAnswers500WhenEncodingFails(t *testing.T) {
	// VectorInto accepts NaN from Go callers, so a NaN feature can reach a
	// response encoder; it must not become a 200 with a truncated body.
	for name, v := range map[string]any{
		"decision": &selector.Decision{Features: map[string]float64{"ppn": math.NaN()}},
		"map":      map[string]float64{"x": math.Inf(1)},
	} {
		t.Run(name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			writeJSON(rec, http.StatusOK, v)
			if rec.Code != http.StatusInternalServerError {
				t.Fatalf("status = %d, want 500: %s", rec.Code, rec.Body.String())
			}
			var e map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
				t.Fatalf("error body not JSON: %v: %q", err, rec.Body.String())
			}
			if !strings.Contains(e["error"], "encode response") {
				t.Errorf("error = %q, want an encode failure", e["error"])
			}
		})
	}
}

func TestSelectResponseIsCompactDecisionJSON(t *testing.T) {
	srv, sel, _ := newTestServer(t)
	rec := post(t, srv, "/v1/select", `{"collective":"alltoall","features":{"log2_msg_size":22,"ppn":48,"num_nodes":32,"mem_bw_gbs":204.8,"thread_count":96}}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	ds := sel.Recent(1)
	if len(ds) != 1 {
		t.Fatalf("ring holds %d decisions, want 1", len(ds))
	}
	type plainDecision selector.Decision // no MarshalJSON: reflection
	want, err := json.Marshal((*plainDecision)(&ds[0]))
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Body.Bytes(); !bytes.Equal(got, append(want, '\n')) {
		t.Fatalf("body = %s\nwant %s", got, want)
	}
}

// warmSelectAllocBudget bounds the allocations of one warm cache-hit
// /v1/select through the handler stack at the default Info level, request
// and recorder included: 56 measured, plus headroom.
const warmSelectAllocBudget = 62

func TestWarmSelectAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime distorts allocation counts")
	}
	b, err := bundle.Load(realBundle)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	o := obs.NewForTest()
	o.Logger.SetLevel(obs.LevelInfo)
	sel := selector.New(b, o, selector.Config{Cache: cache.New(cache.Config{MaxEntries: 1024}, o.Registry)})
	srv := New(sel, o, Config{})
	const body = `{"collective":"alltoall","features":{"log2_msg_size":22,"ppn":48,"num_nodes":32,"mem_bw_gbs":204.8,"thread_count":96}}`
	call := func() {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/select", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
		}
	}
	call() // fill the cache
	if allocs := testing.AllocsPerRun(200, call); allocs > warmSelectAllocBudget {
		t.Fatalf("warm /v1/select allocates %.0f times per call, budget %d", allocs, warmSelectAllocBudget)
	} else {
		t.Logf("warm /v1/select: %.0f allocs per call (budget %d)", allocs, warmSelectAllocBudget)
	}
}
