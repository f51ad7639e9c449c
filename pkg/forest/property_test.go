package forest_test

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/pml-mpi/pmlmpi/pkg/forest"
	"github.com/pml-mpi/pmlmpi/pkg/synth"
)

// synthForests returns every collective forest of a mid-sized synthetic
// bundle plus vectors ordered for each forest's feature subset.
func synthForests(t testing.TB, seed int64) map[string]struct {
	f  *forest.Forest
	xs [][]float64
} {
	t.Helper()
	cfg := synth.Config{Seed: seed, Trees: 24, Depth: 7, Features: 6, Classes: 5}
	b, err := synth.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]struct {
		f  *forest.Forest
		xs [][]float64
	})
	points := synth.Points(seed, 32)
	for name, c := range b.Collectives {
		xs := make([][]float64, len(points))
		for i, p := range points {
			x, err := c.Vector(p)
			if err != nil {
				t.Fatalf("%s: Vector: %v", name, err)
			}
			xs[i] = x
		}
		out[name] = struct {
			f  *forest.Forest
			xs [][]float64
		}{c.Forest, xs}
	}
	return out
}

func TestPredictionIsDeterministicAcrossRuns(t *testing.T) {
	// Two independently generated bundles from the same seed must agree
	// exactly, and repeated predictions on one forest must be identical.
	first := synthForests(t, 11)
	second := synthForests(t, 11)
	for name, fa := range first {
		fb := second[name]
		for i, x := range fa.xs {
			pa, err := fa.f.Predict(x)
			if err != nil {
				t.Fatalf("%s[%d]: %v", name, i, err)
			}
			pb, err := fb.f.Predict(fb.xs[i])
			if err != nil {
				t.Fatalf("%s[%d] regen: %v", name, i, err)
			}
			if !reflect.DeepEqual(pa, pb) {
				t.Fatalf("%s[%d]: prediction differs across identically seeded runs:\n%+v\n%+v", name, i, pa, pb)
			}
			again, _ := fa.f.Predict(x)
			if !reflect.DeepEqual(pa, again) {
				t.Fatalf("%s[%d]: repeated prediction differs", name, i)
			}
		}
	}
}

func TestProbsSumToOneAndArgmaxMatchesClass(t *testing.T) {
	for name, fx := range synthForests(t, 12) {
		for i, x := range fx.xs {
			p, err := fx.f.Predict(x)
			if err != nil {
				t.Fatalf("%s[%d]: %v", name, i, err)
			}
			sum := 0.0
			argmax := 0
			for c, v := range p.Probs {
				if v < 0 || v > 1 {
					t.Errorf("%s[%d]: prob[%d] = %v out of [0,1]", name, i, c, v)
				}
				sum += v
				if v > p.Probs[argmax] {
					argmax = c
				}
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("%s[%d]: probs sum to %v, want ~1", name, i, sum)
			}
			if argmax != p.Class {
				t.Errorf("%s[%d]: class %d but argmax(probs) is %d", name, i, p.Class, argmax)
			}
			totalVotes := 0
			for _, v := range p.Votes {
				totalVotes += v
			}
			if totalVotes != len(fx.f.Trees) {
				t.Errorf("%s[%d]: %d votes for %d trees", name, i, totalVotes, len(fx.f.Trees))
			}
		}
	}
}

func TestValidateRejectsOutOfRangeFeatureIndex(t *testing.T) {
	b, err := synth.New(synth.Config{Seed: 14, Trees: 4, Depth: 4, Features: 5})
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range b.Collectives {
		f := c.Forest
		if err := f.Validate(len(c.Features)); err != nil {
			t.Fatalf("%s: pristine synth forest failed Validate: %v", name, err)
		}
		// Corrupt the first internal node to route on a feature index just
		// past the subset; Validate must name it.
		corrupted := false
		for ti := range f.Trees {
			for ni := range f.Trees[ti].Nodes {
				if !f.Trees[ti].Nodes[ni].Leaf() {
					f.Trees[ti].Nodes[ni].F = len(c.Features)
					corrupted = true
					break
				}
			}
			if corrupted {
				break
			}
		}
		if !corrupted {
			t.Fatalf("%s: synth forest has no internal nodes to corrupt", name)
		}
		err := f.Validate(len(c.Features))
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("%s: corrupted forest passed Validate (err=%v)", name, err)
		}
		break // one collective is enough
	}
}
