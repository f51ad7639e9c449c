package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"github.com/pml-mpi/pmlmpi/pkg/loadgen"
)

func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloadNames {
		a, err := buildPlan(w, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildPlan(w, 7, 1)
		c, _ := buildPlan(w, 8, 1)
		ra, err := a.report()
		if err != nil {
			t.Fatal(err)
		}
		rb, _ := b.report()
		rc, _ := c.report()
		if ra != rb {
			t.Errorf("%s: same seed, different inputs: %+v vs %+v", w, ra, rb)
		}
		if ra.SequenceSHA256 == rc.SequenceSHA256 {
			t.Errorf("%s: seeds 7 and 8 give the same sequence %s", w, ra.SequenceSHA256)
		}
		if len(a.items) != len(b.items) || len(a.calls) != len(b.calls) {
			t.Errorf("%s: same seed, different sizes", w)
		}
	}
}

func TestFleetReplaysHotSequence(t *testing.T) {
	hot, _ := buildPlan(wHot, 3, 1)
	fleet, _ := buildPlan(wFleet, 3, 1)
	rh, _ := hot.report()
	rf, _ := fleet.report()
	if rh.SequenceSHA256 != rf.SequenceSHA256 {
		t.Fatalf("fleet-hot must replay hot-select's sequence: %s vs %s", rf.SequenceSHA256, rh.SequenceSHA256)
	}
}

func TestInputProperties(t *testing.T) {
	hot, _ := buildPlan(wHot, 1, 10)
	rh, _ := hot.report()
	if rh.RepeatShare < 0.9 || rh.DistinctPoints > 540 || rh.WritesPerRead != 0 {
		t.Errorf("hot-select inputs: %+v", rh)
	}
	cold, _ := buildPlan(wCold, 1, 1)
	rc, _ := cold.report()
	if rc.RepeatShare != 0 || rc.DistinctPoints != rc.Items || rc.WritesPerRead != float64(coldFeedbackItems)/coldBatchItems {
		t.Errorf("cold-table inputs: %+v", rc)
	}
	// Warm-up, measured and open-loop points never share a cache key.
	seen := make(map[uint64]bool, len(cold.items))
	for i := range cold.items {
		k := cacheKey(&cold.items[i])
		if seen[k] {
			t.Fatalf("cold-table item %d repeats a cache key", i)
		}
		seen[k] = true
	}
}

// fakeChecker answers class 0 for every item, with costs that make class 0
// cost twice the best.
func fakeChecker(n int) *checker {
	c := &checker{ref: make([]int, n), costs: make([][]float64, n)}
	for i := range c.costs {
		c.costs[i] = []float64{2, 1, 3, 4}
	}
	return c
}

func TestGateRejectsWrongAnswers(t *testing.T) {
	items := []loadgen.Request{
		{Collective: "allgather", Features: map[string]float64{"ppn": 1}},
		{Collective: "allgather", Features: map[string]float64{"ppn": 2}},
		{Collective: "allgather", Features: map[string]float64{"ppn": 3}},
	}
	// The fake server answers item ppn=2 with the wrong class and ppn=3
	// with a malformed body; batches get one wrong item.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/select/batch" {
			json.NewEncoder(w).Encode(map[string]any{"results": []any{
				map[string]any{"decision": map[string]any{"algorithm": "recursive_doubling", "class": 0}},
				map[string]any{"decision": map[string]any{"algorithm": "bruck", "class": 1}},
			}})
			return
		}
		var req struct {
			Features map[string]float64 `json:"features"`
		}
		json.NewDecoder(r.Body).Decode(&req)
		switch req.Features["ppn"] {
		case 1:
			w.Write([]byte(`{"algorithm":"recursive_doubling","class":0}`))
		case 2:
			w.Write([]byte(`{"algorithm":"bruck","class":1}`))
		default:
			w.Write([]byte(`{"algorithm":`))
		}
	}))
	defer srv.Close()

	p := &plan{items: items}
	calls := append(singles([]int{0, 1, 2}), call{items: []int{0, 1}, batch: true})
	cs := newCallers(1, nil)
	defer closeCallers(cs)
	res, err := runClosed(context.Background(), cs, srv.URL, p, fakeChecker(len(items)), calls)
	if err != nil {
		t.Fatal(err)
	}
	if res.v.decisions != 5 || res.v.failed != 3 {
		t.Fatalf("gate counted %d decisions, %d failed; want 5 and 3", res.v.decisions, res.v.failed)
	}
	// Two correct class-0 answers at twice the best cost: regret 1 each.
	if res.v.regretN != 2 || res.v.regretSum != 2 {
		t.Fatalf("regret over %d decisions sums to %v; want 2 and 2", res.v.regretN, res.v.regretSum)
	}
}

func TestGateCountsNon200AsFailed(t *testing.T) {
	ck := fakeChecker(2)
	items := []loadgen.Request{{Collective: "allgather"}, {Collective: "allgather"}}
	v := ck.checkResponse(items, []int{0, 1}, true, http.StatusBadGateway, nil)
	if v.failed != 2 {
		t.Fatalf("a 502 batch of 2 counted %d failures", v.failed)
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(lo, hi int) span {
		return span{start: t0.Add(time.Duration(lo) * time.Microsecond), end: t0.Add(time.Duration(hi) * time.Microsecond)}
	}
	cases := []struct {
		name     string
		parent   span
		children []span
		want     time.Duration
	}{
		{"no children", at(0, 100), nil, 100 * time.Microsecond},
		{"one child", at(0, 100), []span{at(10, 40)}, 70 * time.Microsecond},
		{"disjoint children", at(0, 100), []span{at(10, 20), at(50, 80)}, 60 * time.Microsecond},
		{"overlapping children count once", at(0, 100), []span{at(10, 50), at(30, 60)}, 50 * time.Microsecond},
		{"nested child", at(0, 100), []span{at(10, 90), at(20, 30)}, 20 * time.Microsecond},
		{"child clipped to parent", at(0, 100), []span{at(-20, 10), at(90, 130)}, 80 * time.Microsecond},
		{"child outside parent", at(0, 100), []span{at(200, 300)}, 100 * time.Microsecond},
	}
	for _, c := range cases {
		if got := selfTime(c.parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 100; i++ {
		ds = append(ds, time.Duration(i))
	}
	if q := quantile(ds, 0.5); q != 50 {
		t.Errorf("p50 of 1..100 = %v", q)
	}
	if q := quantile(ds, 0.99); q != 99 {
		t.Errorf("p99 of 1..100 = %v", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("quantile of nothing = %v", q)
	}
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the traced run reports %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json has %s (%s), the traced run %s (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	c := &closedRun{all: &phaseResult{}, windows: []*phaseResult{{wall: time.Second}}}
	reported := c.gated([]float64{1}, []float64{1}, 1)
	reported["setup_s"] = metric{Unit: "s"}
	if len(reported) != len(b.EndToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the run reports %d", len(b.EndToEnd), len(reported))
	}
	for _, m := range b.EndToEnd {
		if got, ok := reported[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s) is not reported with that unit", m.Name, m.Unit)
		}
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json has %s, the benchmark %s", i, w.Name, workloadNames[i])
		}
	}
}
