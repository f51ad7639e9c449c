package compiled_test

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"github.com/pml-mpi/pmlmpi/pkg/forest"
	"github.com/pml-mpi/pmlmpi/pkg/forest/compiled"
)

// fuzzForest derives a small, valid random forest from the fuzz inputs:
// shape bytes pick the geometry, seed drives every structural choice. The
// generator appends parents before children (like pkg/synth), so the forest
// always passes Validate and the fuzzer explores evaluator behavior, not
// input rejection.
func fuzzForest(seed int64, shape []byte) (*forest.Forest, int) {
	at := func(i int, mod, min int) int {
		if i < len(shape) {
			return min + int(shape[i])%mod
		}
		return min
	}
	trees := at(0, 8, 1)
	depth := at(1, 6, 1)
	features := at(2, 12, 1)
	classes := at(3, 6, 2)

	rng := rand.New(rand.NewSource(seed))
	f := &forest.Forest{NClasses: classes, Trees: make([]forest.Tree, trees)}
	for t := range f.Trees {
		var nodes []forest.Node
		var build func(d int) int
		build = func(d int) int {
			idx := len(nodes)
			nodes = append(nodes, forest.Node{})
			if d <= 0 || rng.Float64() < 0.2 {
				dist := make([]float64, classes)
				for i := range dist {
					dist[i] = rng.Float64()
				}
				nodes[idx] = forest.Node{F: -1, D: dist}
				return idx
			}
			feat := rng.Intn(features)
			thresh := rng.NormFloat64() * 16
			l := build(d - 1)
			r := build(d - 1)
			nodes[idx] = forest.Node{F: feat, T: thresh, L: l, R: r}
			return idx
		}
		build(depth)
		f.Trees[t] = forest.Tree{Nodes: nodes}
	}
	return f, features
}

// fuzzVector decodes vecBytes into a feature vector of length n: 8-byte
// chunks become raw float64 bits (so NaN, ±Inf, subnormals, and negative
// zero all occur), and any shortfall is filled deterministically from seed.
func fuzzVector(seed int64, vecBytes []byte, n int) []float64 {
	x := make([]float64, n)
	rng := rand.New(rand.NewSource(seed ^ 0x9e3779b9))
	for i := range x {
		if (i+1)*8 <= len(vecBytes) {
			x[i] = math.Float64frombits(binary.LittleEndian.Uint64(vecBytes[i*8:]))
		} else {
			x[i] = rng.NormFloat64() * 32
		}
	}
	return x
}

// FuzzCompiledVsPointer is the differential harness pinning the compiled
// evaluator to the pointer walk: for every generated forest and feature
// vector — including NaN/Inf payloads smuggled in through raw float bits —
// the class, every probability, and every vote must be bit-identical across
// the single compiled path and the batch path. Seed corpus lives in
// testdata/fuzz/FuzzCompiledVsPointer (regenerate with `go test
// -run=FuzzCompiledVsPointer -fuzz=FuzzCompiledVsPointer -fuzztime=30s
// ./pkg/forest/compiled`).
func FuzzCompiledVsPointer(f *testing.F) {
	f.Add(int64(1), []byte{}, []byte{})
	f.Add(int64(2), []byte{7, 5, 11, 5}, []byte{})
	f.Add(int64(3), []byte{1, 1, 1, 1}, make([]byte, 16))
	nan := binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN()))
	inf := binary.LittleEndian.AppendUint64(nan, math.Float64bits(math.Inf(-1)))
	f.Add(int64(4), []byte{4, 3, 2, 3}, inf)
	f.Add(int64(5), []byte{255, 255, 255, 255}, []byte{0x80, 0, 0, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, seed int64, shape, vecBytes []byte) {
		pf, features := fuzzForest(seed, shape)
		cf, err := compiled.Compile(pf, features)
		if err != nil {
			t.Fatalf("Compile rejected a generator-valid forest: %v", err)
		}
		x := fuzzVector(seed, vecBytes, features)

		want, err := pf.Predict(x)
		if err != nil {
			t.Fatalf("pointer Predict: %v", err)
		}
		got, err := cf.Predict(x)
		if err != nil {
			t.Fatalf("compiled Predict: %v", err)
		}
		samePrediction(t, "compiled", got, want)

		// The vote margin feeds confidence telemetry, so it must also be
		// bit-identical across evaluators — a margin computed from compiled
		// probs equals one computed from pointer probs, bit for bit.
		if mg, mw := forest.Margin(got.Probs), forest.Margin(want.Probs); math.Float64bits(mg) != math.Float64bits(mw) {
			t.Fatalf("margin: compiled %x != pointer %x (%v vs %v)",
				math.Float64bits(mg), math.Float64bits(mw), mg, mw)
		}

		out := make([]forest.Prediction, 1)
		if err := cf.PredictBatch([][]float64{x}, out); err != nil {
			t.Fatalf("PredictBatch: %v", err)
		}
		samePrediction(t, "batch", out[0], want)
	})
}
