package forest_test

import (
	"math"
	"testing"

	"github.com/pml-mpi/pmlmpi/pkg/bundle"
	"github.com/pml-mpi/pmlmpi/pkg/forest"
)

const realBundle = "../../.pmlbench/bundle_all_full.json"

// Golden predictions computed with an independent reference traversal
// (x[f] <= t goes left; soft vote = mean of leaf distributions; hard vote
// per tree = argmax of leaf distribution, lowest index wins ties).
var goldenCases = []struct {
	collective string
	x          []float64 // ordered by the collective's feature_names
	class      int
	votes      []int
	probs      []float64
}{
	{
		collective: "allgather", // log2_msg_size, ppn, num_nodes, thread_count, l3_cache_mib
		x:          []float64{10, 16, 8, 64, 35},
		class:      0,
		votes:      []int{35, 0, 25, 0},
		probs:      []float64{0.5608486781, 0.0018571429, 0.4351960703, 0.0020981087},
	},
	{
		collective: "allgather",
		x:          []float64{20, 32, 64, 128, 24},
		class:      1,
		votes:      []int{0, 60, 0, 0},
		probs:      []float64{0.0005555556, 0.9986111111, 0.0008333333, 0},
	},
	{
		collective: "allgather",
		x:          []float64{4, 1, 2, 16, 35.75},
		class:      1,
		votes:      []int{18, 19, 7, 16},
		probs:      []float64{0.2947264669, 0.3331024219, 0.0889216703, 0.2832494408},
	},
	{
		collective: "alltoall", // log2_msg_size, ppn, num_nodes, mem_bw_gbs, thread_count
		x:          []float64{10, 16, 8, 100, 64},
		class:      0,
		votes:      []int{96, 4, 0, 0, 0},
		probs:      []float64{0.9398863578, 0.0580415701, 0.0011261261, 0, 0.0009459459},
	},
	{
		collective: "alltoall",
		x:          []float64{22, 48, 32, 204.8, 96},
		class:      1,
		votes:      []int{1, 94, 3, 0, 2},
		probs:      []float64{0.0050906705, 0.9260734661, 0.0361724316, 0, 0.0326634318},
	},
	{
		collective: "alltoall",
		x:          []float64{6, 2, 4, 68, 32},
		class:      1,
		votes:      []int{0, 100, 0, 0, 0},
		probs:      []float64{0, 0.995289916, 0.004710084, 0, 0},
	},
}

func TestGoldenPredictions(t *testing.T) {
	b, err := bundle.Load(realBundle)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, tc := range goldenCases {
		c, ok := b.Collective(tc.collective)
		if !ok {
			t.Fatalf("missing collective %q", tc.collective)
		}
		pred, err := c.Forest.Predict(tc.x)
		if err != nil {
			t.Fatalf("%s %v: %v", tc.collective, tc.x, err)
		}
		if pred.Class != tc.class {
			t.Errorf("%s %v: class = %d, want %d", tc.collective, tc.x, pred.Class, tc.class)
		}
		if len(pred.Votes) != len(tc.votes) {
			t.Fatalf("%s %v: votes len %d, want %d", tc.collective, tc.x, len(pred.Votes), len(tc.votes))
		}
		for i := range tc.votes {
			if pred.Votes[i] != tc.votes[i] {
				t.Errorf("%s %v: votes = %v, want %v", tc.collective, tc.x, pred.Votes, tc.votes)
				break
			}
		}
		for i := range tc.probs {
			if math.Abs(pred.Probs[i]-tc.probs[i]) > 1e-9 {
				t.Errorf("%s %v: probs[%d] = %.12f, want %.12f", tc.collective, tc.x, i, pred.Probs[i], tc.probs[i])
			}
		}
	}
}

func TestPredictionDeterministic(t *testing.T) {
	b, err := bundle.Load(realBundle)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	c, _ := b.Collective("allgather")
	x := []float64{10, 16, 8, 64, 35}
	first, err := c.Forest.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := c.Forest.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		if again.Class != first.Class {
			t.Fatalf("prediction not deterministic: %d vs %d", again.Class, first.Class)
		}
		for j := range first.Probs {
			if again.Probs[j] != first.Probs[j] {
				t.Fatalf("probs drifted on repeat %d", i)
			}
		}
	}
}

func TestPredictHandBuilt(t *testing.T) {
	f := &forest.Forest{
		NClasses: 2,
		Trees: []forest.Tree{
			{Nodes: []forest.Node{
				{F: 0, T: 5, L: 1, R: 2},
				{F: -1, D: []float64{1, 0}},
				{F: -1, D: []float64{0, 1}},
			}},
			{Nodes: []forest.Node{
				{F: -1, D: []float64{0.25, 0.75}},
			}},
		},
	}
	// x[0] = 5 takes the left branch (<= is left-inclusive).
	pred, err := f.Predict([]float64{5})
	if err != nil {
		t.Fatal(err)
	}
	if pred.Class != 0 {
		t.Errorf("class = %d, want 0 (probs %v)", pred.Class, pred.Probs)
	}
	if pred.Probs[0] != 0.625 || pred.Probs[1] != 0.375 {
		t.Errorf("probs = %v, want [0.625 0.375]", pred.Probs)
	}
	if pred.Votes[0] != 1 || pred.Votes[1] != 1 {
		t.Errorf("votes = %v, want [1 1]", pred.Votes)
	}

	pred, err = f.Predict([]float64{6})
	if err != nil {
		t.Fatal(err)
	}
	if pred.Class != 1 {
		t.Errorf("class = %d, want 1 (probs %v)", pred.Class, pred.Probs)
	}
}

func TestPredictErrors(t *testing.T) {
	empty := &forest.Forest{NClasses: 2}
	if _, err := empty.Predict([]float64{1}); err == nil {
		t.Error("expected error for empty forest")
	}

	short := &forest.Forest{
		NClasses: 2,
		Trees: []forest.Tree{{Nodes: []forest.Node{
			{F: 3, T: 1, L: 1, R: 1},
			{F: -1, D: []float64{1, 0}},
		}}},
	}
	if _, err := short.Predict([]float64{1}); err == nil {
		t.Error("expected error for feature index beyond vector length")
	}
}

func TestValidate(t *testing.T) {
	ok := &forest.Forest{
		NClasses: 2,
		Trees: []forest.Tree{{Nodes: []forest.Node{
			{F: 0, T: 1, L: 1, R: 2},
			{F: -1, D: []float64{1, 0}},
			{F: -1, D: []float64{0, 1}},
		}}},
	}
	if err := ok.Validate(1); err != nil {
		t.Errorf("valid forest rejected: %v", err)
	}
	if err := ok.Validate(0); err == nil {
		t.Error("expected error: feature index beyond numFeatures")
	}

	backward := &forest.Forest{
		NClasses: 2,
		Trees: []forest.Tree{{Nodes: []forest.Node{
			{F: 0, T: 1, L: 0, R: 1},
			{F: -1, D: []float64{1, 0}},
		}}},
	}
	if err := backward.Validate(1); err == nil {
		t.Error("expected error: self-referencing child index")
	}
}

func TestInstrumentHookObservesEveryPredict(t *testing.T) {
	f := &forest.Forest{
		NClasses: 2,
		Trees: []forest.Tree{
			{Nodes: []forest.Node{{F: -1, D: []float64{1, 0}}}},
			{Nodes: []forest.Node{{F: -1, D: []float64{0, 1}}}},
			{Nodes: []forest.Node{{F: -1, D: []float64{1, 0}}}},
			{Nodes: []forest.Node{{F: -1, D: []float64{0, 1}}}},
		},
	}
	var calls int
	var total float64
	f.Instrument(func(sec float64) {
		calls++
		total += sec
		if sec < 0 {
			t.Errorf("negative predict duration %v", sec)
		}
	})

	if _, err := f.Predict([]float64{1}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("hook called %d times after Predict, want 1", calls)
	}

	f.Instrument(nil)
	if _, err := f.Predict([]float64{1}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("nil hook still observed: %d calls", calls)
	}
}
