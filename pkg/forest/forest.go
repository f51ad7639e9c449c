// Package forest evaluates the serialized random forests shipped in a
// PML-MPI model bundle. Trees are stored as flat node arrays; leaves carry
// a class-probability distribution. Prediction averages the leaf
// distributions across trees (soft voting, matching scikit-learn's
// RandomForestClassifier.predict_proba) and also reports the per-tree hard
// vote split for debugging.
package forest

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Node is one decision-tree node. Internal nodes route on feature F with
// threshold T (x[F] <= T goes left); leaves have F == -1 and carry D, the
// class-probability distribution.
type Node struct {
	F int       `json:"f"`
	T float64   `json:"t"`
	L int       `json:"l"`
	R int       `json:"r"`
	D []float64 `json:"d,omitempty"`
}

// Leaf reports whether the node is a leaf.
func (n *Node) Leaf() bool { return n.F < 0 }

// Tree is a flat array of nodes; node 0 is the root.
type Tree struct {
	Nodes []Node `json:"nodes"`
}

// leafFor walks the tree for feature vector x and returns the leaf reached.
// The walk is bounded by len(Nodes) steps so a malformed (cyclic) tree
// cannot loop forever; Validate rejects such trees up front.
func (t *Tree) leafFor(x []float64) (*Node, error) {
	i := 0
	for steps := 0; steps <= len(t.Nodes); steps++ {
		if i < 0 || i >= len(t.Nodes) {
			return nil, fmt.Errorf("node index %d out of range [0,%d)", i, len(t.Nodes))
		}
		n := &t.Nodes[i]
		if n.Leaf() {
			return n, nil
		}
		if n.F >= len(x) {
			return nil, fmt.Errorf("node %d routes on feature %d but vector has %d features", i, n.F, len(x))
		}
		if x[n.F] <= n.T {
			i = n.L
		} else {
			i = n.R
		}
	}
	return nil, fmt.Errorf("tree walk exceeded %d steps (cycle?)", len(t.Nodes))
}

// Forest is an ensemble of trees over a shared feature space.
type Forest struct {
	Trees      []Tree    `json:"trees"`
	NClasses   int       `json:"nclasses"`
	Importance []float64 `json:"importance,omitempty"`
	OOB        float64   `json:"oob,omitempty"`

	// onPredict, when set via Instrument, receives the wall time of every
	// Predict call. Unexported so JSON round-trips ignore it;
	// atomic so a hot-swapped bundle can be instrumented while earlier
	// generations still serve traffic.
	onPredict atomic.Pointer[func(seconds float64)]
}

// Instrument registers fn to receive the wall-clock seconds of every
// subsequent Predict call — the hook the selector uses to feed
// its per-predict latency histogram without this package depending on the
// metrics layer. Passing nil removes the hook. Safe to call concurrently
// with Predict.
func (f *Forest) Instrument(fn func(seconds float64)) {
	if fn == nil {
		f.onPredict.Store(nil)
		return
	}
	f.onPredict.Store(&fn)
}

// Prediction is the result of evaluating a forest on one feature vector.
type Prediction struct {
	// Class is the argmax of Probs (lowest index wins ties).
	Class int
	// Probs is the mean of the leaf distributions across all trees.
	Probs []float64
	// Votes[c] counts trees whose own leaf argmax was class c.
	Votes []int
}

// Margin is the soft-vote confidence of a prediction: the gap between the
// top two entries of probs, in [0,1] for a probability distribution. A
// margin near zero means the forest nearly tied two algorithms — the
// decisions most worth auditing. With fewer than two classes the single
// probability is returned, and an empty slice yields 0. The computation is
// a pure function of probs, so the pointer and compiled evaluators (whose
// Probs are bit-identical) reconstruct bit-identical margins.
func Margin(probs []float64) float64 {
	top, second := 0.0, 0.0
	switch len(probs) {
	case 0:
		return 0
	case 1:
		return probs[0]
	}
	if probs[0] >= probs[1] {
		top, second = probs[0], probs[1]
	} else {
		top, second = probs[1], probs[0]
	}
	for _, p := range probs[2:] {
		if p > top {
			second, top = top, p
		} else if p > second {
			second = p
		}
	}
	return top - second
}

// Predict evaluates the forest on x. x must be ordered to match the
// feature subset the forest was trained on.
func (f *Forest) Predict(x []float64) (Prediction, error) {
	if len(f.Trees) == 0 {
		return Prediction{}, fmt.Errorf("forest has no trees")
	}
	if fn := f.onPredict.Load(); fn != nil {
		defer func(start time.Time) { (*fn)(time.Since(start).Seconds()) }(time.Now())
	}
	acc := make([]float64, f.NClasses)
	votes := make([]int, f.NClasses)
	for ti := range f.Trees {
		leaf, err := f.Trees[ti].leafFor(x)
		if err != nil {
			return Prediction{}, fmt.Errorf("tree %d: %w", ti, err)
		}
		if len(leaf.D) != f.NClasses {
			return Prediction{}, fmt.Errorf("tree %d: leaf distribution has %d classes, want %d", ti, len(leaf.D), f.NClasses)
		}
		best := 0
		for c, p := range leaf.D {
			acc[c] += p
			if p > leaf.D[best] {
				best = c
			}
		}
		votes[best]++
	}
	n := float64(len(f.Trees))
	cls := 0
	for c := range acc {
		acc[c] /= n
		if acc[c] > acc[cls] {
			cls = c
		}
	}
	return Prediction{Class: cls, Probs: acc, Votes: votes}, nil
}

// Validate checks structural integrity: non-empty ensemble, child indices
// in range, strictly forward-pointing links (no cycles), leaf distributions
// of the right arity, and internal feature indices within numFeatures.
func (f *Forest) Validate(numFeatures int) error {
	if f.NClasses <= 0 {
		return fmt.Errorf("nclasses must be positive, got %d", f.NClasses)
	}
	if len(f.Trees) == 0 {
		return fmt.Errorf("forest has no trees")
	}
	for ti := range f.Trees {
		t := &f.Trees[ti]
		if len(t.Nodes) == 0 {
			return fmt.Errorf("tree %d has no nodes", ti)
		}
		for ni := range t.Nodes {
			n := &t.Nodes[ni]
			if n.Leaf() {
				if len(n.D) != f.NClasses {
					return fmt.Errorf("tree %d node %d: leaf distribution has %d classes, want %d",
						ti, ni, len(n.D), f.NClasses)
				}
				continue
			}
			if n.F >= numFeatures {
				return fmt.Errorf("tree %d node %d: feature index %d out of range [0,%d)",
					ti, ni, n.F, numFeatures)
			}
			if n.L <= ni || n.L >= len(t.Nodes) || n.R <= ni || n.R >= len(t.Nodes) {
				return fmt.Errorf("tree %d node %d: child indices (%d,%d) must point forward within [0,%d)",
					ti, ni, n.L, n.R, len(t.Nodes))
			}
		}
	}
	return nil
}
