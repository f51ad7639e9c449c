// Package compiled is the hot-path forest evaluator: it flattens a
// validated pointer-linked forest.Forest into contiguous structure-of-arrays
// storage compiled once at bundle load time, then evaluates with
// cache-line-friendly, branch-light descent and no per-call error checking
// (structural validity is proven at compile time, so the descent loop cannot
// go out of bounds or cycle).
//
// Each tree is laid out in preorder: a node's left child is the very next
// arena slot, so only the right child needs an explicit offset and a
// left-leaning descent reads memory sequentially. In memory each node packs
// the split threshold and a meta word (feature index in the low 16 bits,
// right-child index or leaf ordinal above) into 16 bytes, so the walk costs
// one bounds check and one cache line per node — a fraction of the pointer
// representation's 56-byte nodes.
//
// The compiled evaluator is bit-identical to forest.Forest.Predict: leaf
// distributions accumulate in the same tree and class order, votes use the
// same first-wins argmax, and the final mean uses the same division, so
// every float in the result carries the exact same bits. A differential
// fuzz target and a golden prediction-table test pin that guarantee.
//
// A compiled Forest is immutable after Compile and therefore safe to share
// across goroutines and registry generations without synchronization.
package compiled

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
	"unsafe"

	"github.com/pml-mpi/pmlmpi/pkg/forest"
)

// leafFlag marks a leaf in the in-memory meta word (bit 15 of the feature
// bits), and featMask extracts the real feature index below it. Compile
// rejects forests with 1<<15 or more features, so the flag can never
// collide with a real feature index.
const (
	leafFlag = 1 << 15
	featMask = leafFlag - 1
)

// maxNodes bounds the node arena so every arena index fits comfortably in
// int32.
const maxNodes = 1 << 30

// node is one compiled tree node: the split threshold plus a meta word
// packing the feature bits (low 16: feature index, or leafFlag for a leaf)
// and the next-node arena index in bits 16..47. One 16-byte load brings in
// everything the descent needs.
//
// A leaf is a *parked* node: its threshold is NaN and its packed offset
// points at itself, so the unguarded descent step — go right unless
// x[feat&featMask] <= t — self-loops forever once a chain reaches its leaf
// (NaN compares false, so it always goes "right" to itself, and its feature
// bits mask to 0 so the x read stays in bounds). That lets two trees
// descend in lockstep with no per-step "am I done?" branches: the loop just
// runs until both chains are parked. Leaf payloads (leafProbs offset and
// hard-vote class) live in the parallel leafRef array, keyed by the leaf's
// own arena index.
type node struct {
	t    float64
	meta uint64
}

// packNode builds an internal node's packed form.
func packNode(feat uint16, off int32, t float64) node {
	return node{t: t, meta: uint64(feat) | uint64(uint32(off))<<16}
}

// packLeaf builds a leaf's parked form: NaN threshold, self-pointing
// offset.
func packLeaf(self int32) node {
	return node{t: math.NaN(), meta: leafFlag | uint64(uint32(self))<<16}
}

// packLeafRef builds a leaf's payload word from its premultiplied leafProbs
// offset and hard-vote class.
func packLeafRef(probOff int32, vote int32) uint64 {
	return uint64(uint32(probOff)) | uint64(uint32(vote))<<32
}

// feat returns the low 16 feature bits: the split feature index for an
// internal node, leafFlag for a leaf.
func (n node) feat() uint16 { return uint16(n.meta) }

// isLeaf reports whether the node is a (parked) leaf.
func (n node) isLeaf() bool { return n.meta&leafFlag != 0 }

// off returns the next-node arena index: the right child for an internal
// node, the node itself for a leaf.
func (n node) off() int32 { return int32(uint32(n.meta >> 16)) }

// Forest is a compiled ensemble. Trees live tree-after-tree in one packed
// node arena, each tree in preorder:
//
//   - an internal node splits on x[feat] <= t (left child at i+1, right
//     child at the packed offset);
//   - a leaf is parked (see node) and leafRef[i] carries its payload: the
//     leafProbs offset of its class distribution plus its precomputed
//     hard-vote class;
//   - leafProbs holds leaf k's class distribution at [k*nClasses,
//     (k+1)*nClasses).
//
// roots[t] is tree t's root index (trees are stored contiguously, so the
// roots double as tree boundaries).
type Forest struct {
	nClasses  int
	nFeatures int
	roots     []int32
	nodes     []node
	leafRef   []uint64
	leafProbs []float64

	// BatchThreshold is the vector count at or above which PredictBatch
	// fans out across goroutines (DefaultBatchThreshold after Compile;
	// <= 0 disables fan-out). Set it before the forest is shared — like
	// every other field it must not change once evaluation starts.
	BatchThreshold int

	// onPredict mirrors forest.Forest's instrumentation hook: it receives
	// the wall time of every Predict/PredictInto call. Atomic so a
	// hot-swapped generation can be instrumented while serving.
	onPredict atomic.Pointer[func(seconds float64)]
}

// NClasses returns the number of algorithm classes the forest votes over.
func (cf *Forest) NClasses() int { return cf.nClasses }

// NumFeatures returns the feature-vector length the forest expects.
func (cf *Forest) NumFeatures() int { return cf.nFeatures }

// NumTrees returns the ensemble size.
func (cf *Forest) NumTrees() int { return len(cf.roots) }

// NumNodes returns the total node count across all trees.
func (cf *Forest) NumNodes() int { return len(cf.nodes) }

// NumLeaves returns the total leaf count across all trees.
func (cf *Forest) NumLeaves() int { return len(cf.leafProbs) / cf.nClasses }

// Instrument registers fn to receive the wall-clock seconds of every
// subsequent predict call, or removes the hook when fn is nil. Safe to call
// concurrently with evaluation.
func (cf *Forest) Instrument(fn func(seconds float64)) {
	if fn == nil {
		cf.onPredict.Store(nil)
		return
	}
	cf.onPredict.Store(&fn)
}

// Compile flattens f into packed arena form. It re-runs
// forest.Forest.Validate against numFeatures first, so a compiled forest is
// structurally sound by construction: every right-child offset points
// forward within its tree, every feature index is below numFeatures, and
// every leaf distribution has exactly NClasses entries. Each tree is re-laid
// in preorder; node order within the arena changes, but tree order and
// per-leaf class order — the two things float accumulation depends on — are
// preserved exactly, which is what keeps compiled evaluation bit-identical
// to the pointer walk.
func Compile(f *forest.Forest, numFeatures int) (*Forest, error) {
	if err := f.Validate(numFeatures); err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	if numFeatures >= leafFlag {
		return nil, fmt.Errorf("compile: %d features overflow the %d-feature index space", numFeatures, leafFlag-1)
	}
	total, leaves := 0, 0
	for ti := range f.Trees {
		nodes := f.Trees[ti].Nodes
		total += len(nodes)
		for ni := range nodes {
			if nodes[ni].Leaf() {
				leaves++
			}
		}
	}
	if total > maxNodes {
		return nil, fmt.Errorf("compile: %d nodes exceed the arena bound %d", total, maxNodes)
	}
	if leaves*f.NClasses > maxNodes {
		return nil, fmt.Errorf("compile: %d leaf probabilities exceed the arena bound %d", leaves*f.NClasses, maxNodes)
	}

	cf := &Forest{
		nClasses:       f.NClasses,
		nFeatures:      numFeatures,
		roots:          make([]int32, len(f.Trees)),
		nodes:          make([]node, 0, total),
		leafRef:        make([]uint64, 0, total),
		BatchThreshold: DefaultBatchThreshold,
	}
	for ti := range f.Trees {
		nodes := f.Trees[ti].Nodes
		cf.roots[ti] = int32(len(cf.nodes))
		// Preorder emission: parent, left subtree, then right subtree, so
		// the left child always lands at parent+1. Validate proved children
		// point forward, so the recursion terminates.
		var emit func(ni int)
		emit = func(ni int) {
			n := &nodes[ni]
			if n.Leaf() {
				// Precompute the hard vote with the pointer evaluator's
				// exact argmax rule (strict >, lowest index wins ties).
				best := 0
				for c, p := range n.D {
					if p > n.D[best] {
						best = c
					}
				}
				cf.nodes = append(cf.nodes, packLeaf(int32(len(cf.nodes))))
				cf.leafRef = append(cf.leafRef, packLeafRef(int32(len(cf.leafProbs)), int32(best)))
				cf.leafProbs = append(cf.leafProbs, n.D...)
				return
			}
			i := len(cf.nodes)
			cf.nodes = append(cf.nodes, packNode(uint16(n.F), 0, n.T))
			cf.leafRef = append(cf.leafRef, 0)
			emit(n.L)
			cf.nodes[i].meta |= uint64(uint32(len(cf.nodes))) << 16
			emit(n.R)
		}
		emit(0)
	}
	return cf, nil
}

// Decompile reconstructs a pointer-linked forest from the compiled form.
// Node order within each tree is the compiled preorder, not the source
// order, but the tree structure, thresholds, and leaf distributions are
// exact — Compile(Decompile(cf)) rebuilds the same arena, and every
// prediction is bit-identical. Used by the differential tests.
func (cf *Forest) Decompile() *forest.Forest {
	f := &forest.Forest{
		NClasses: cf.nClasses,
		Trees:    make([]forest.Tree, len(cf.roots)),
	}
	nc := int32(cf.nClasses)
	for ti := range cf.roots {
		lo, hi := cf.treeBounds(ti)
		nodes := make([]forest.Node, hi-lo)
		for i := lo; i < hi; i++ {
			n := &nodes[i-lo]
			nd := cf.nodes[i]
			if !nd.isLeaf() {
				n.F = int(nd.feat())
				n.T = nd.t
				n.L = int(i + 1 - lo)
				n.R = int(nd.off() - lo)
				continue
			}
			n.F = -1
			off := int32(uint32(cf.leafRef[i]))
			n.D = append([]float64(nil), cf.leafProbs[off:off+nc]...)
		}
		f.Trees[ti] = forest.Tree{Nodes: nodes}
	}
	return f
}

// treeBounds returns tree ti's [lo, hi) node range in the arena.
func (cf *Forest) treeBounds(ti int) (lo, hi int32) {
	lo = cf.roots[ti]
	if ti+1 < len(cf.roots) {
		return lo, cf.roots[ti+1]
	}
	return lo, int32(len(cf.nodes))
}

// treeChunk is the tree-group size of accumulate's two-phase walk: leaf
// arena indices for up to treeChunk trees are buffered on the stack before
// accumulation, so descent order can differ from accumulation order.
const treeChunk = 64

// walkChunk descends every tree rooted in roots on x, writing each tree's
// final leaf arena index into the matching li slot. Trees are walked two at
// a time: the two load chains are independent, so the CPU overlaps their
// node fetches instead of serializing them, roughly halving the
// latency-bound descent time. Parked leaves (see node) make the lockstep
// loop guard-free — a chain that reaches its leaf keeps harmlessly stepping
// in place until the other one finishes — and the predicate matches the
// pointer walk exactly: x[f] <= t goes left, everything else — including
// NaN — goes right, written as a negated <= so NaN routes identically in
// both evaluators.
//
// Callers must guarantee len(x) > 0 (any forest with an internal node
// requires it; see accumulate for the leaf-only case).
// The inner loop reads nodes and x through raw pointers: bounds checks cost
// ~15% of the whole predict here, and every index is already proven in
// range before evaluation ever starts — Compile validates that each
// node's packed offset stays inside its tree's arena segment, each split's feature index is below nFeatures (and PredictInto
// rejects vectors shorter than nFeatures), and a parked leaf's feature bits
// mask to 0 (walkChunk's callers guarantee len(x) > 0).
func walkChunk(nodes []node, x []float64, roots []int32, li []int32) {
	np := unsafe.Pointer(unsafe.SliceData(nodes))
	xp := unsafe.Pointer(unsafe.SliceData(x))
	t := 0
	for ; t+2 <= len(roots); t += 2 {
		i0, i1 := roots[t], roots[t+1]
		n0 := *(*node)(unsafe.Add(np, uintptr(uint32(i0))*16))
		n1 := *(*node)(unsafe.Add(np, uintptr(uint32(i1))*16))
		for n0.meta&n1.meta&leafFlag == 0 {
			next0 := i0 + 1
			if !(*(*float64)(unsafe.Add(xp, uintptr(uint16(n0.meta)&featMask)*8)) <= n0.t) {
				next0 = n0.off()
			}
			i0 = next0
			n0 = *(*node)(unsafe.Add(np, uintptr(uint32(i0))*16))
			next1 := i1 + 1
			if !(*(*float64)(unsafe.Add(xp, uintptr(uint16(n1.meta)&featMask)*8)) <= n1.t) {
				next1 = n1.off()
			}
			i1 = next1
			n1 = *(*node)(unsafe.Add(np, uintptr(uint32(i1))*16))
		}
		li[t], li[t+1] = i0, i1
	}
	if t < len(roots) {
		i := roots[t]
		nd := nodes[i]
		for !nd.isLeaf() {
			next := i + 1
			if !(x[nd.feat()] <= nd.t) {
				next = nd.off()
			}
			i = next
			nd = nodes[i]
		}
		li[t] = i
	}
}

// accumulate descends every tree on x, adding leaf distributions into acc
// and hard votes into votes — the allocation-free core shared by the single
// and batch entry points. x must have at least nFeatures entries and votes
// must be a zeroed nClasses-sized slice (checked by callers); acc must be
// nClasses long but its contents are overwritten, not added to.
//
// The common small class counts get specialized loops that keep the running
// sums in registers instead of bouncing every add through memory; every
// variant performs the same adds in the same tree and class order starting
// from zero, so bit-identity with the pointer evaluator is unaffected.
// accumulate returns the argmax class, computed with the pointer
// evaluator's exact rule (strict >, lowest index wins ties).
func (cf *Forest) accumulate(x []float64, acc []float64, votes []int) int {
	if len(x) == 0 {
		// Only a forest with zero declared features gets here, and such a
		// forest is all leaf-only trees (any split node forces nFeatures
		// >= 1), so no descent step ever reads x.
		cf.accumulateLeafOnly(acc, votes)
		return cf.finalize(acc)
	}
	switch cf.nClasses {
	case 3:
		return cf.accumulate3(x, acc, votes)
	case 4:
		return cf.accumulate4(x, acc, votes)
	default:
		cf.accumulateAny(x, acc, votes)
		return cf.finalize(acc)
	}
}

func (cf *Forest) accumulate3(x []float64, acc []float64, votes []int) int {
	lp, lref := cf.leafProbs, cf.leafRef
	roots := cf.roots
	var li [treeChunk]int32
	var a0, a1, a2 float64
	for g := 0; g < len(roots); g += treeChunk {
		n := len(roots) - g
		if n > treeChunk {
			n = treeChunk
		}
		walkChunk(cf.nodes, x, roots[g:g+n], li[:n])
		for _, i := range li[:n] {
			r := lref[i]
			off := int(uint32(r))
			a0 += lp[off]
			a1 += lp[off+1]
			a2 += lp[off+2]
			votes[r>>32]++
		}
	}
	// Mean and argmax stay in registers: same divides, same strict-> /
	// first-wins comparison sequence as finalize, so results are
	// bit-identical.
	n := float64(len(roots))
	a0 /= n
	a1 /= n
	a2 /= n
	acc[0], acc[1], acc[2] = a0, a1, a2
	cls, best := 0, a0
	if a1 > best {
		cls, best = 1, a1
	}
	if a2 > best {
		cls = 2
	}
	return cls
}

func (cf *Forest) accumulate4(x []float64, acc []float64, votes []int) int {
	lp, lref := cf.leafProbs, cf.leafRef
	roots := cf.roots
	var li [treeChunk]int32
	var a0, a1, a2, a3 float64
	for g := 0; g < len(roots); g += treeChunk {
		n := len(roots) - g
		if n > treeChunk {
			n = treeChunk
		}
		walkChunk(cf.nodes, x, roots[g:g+n], li[:n])
		for _, i := range li[:n] {
			r := lref[i]
			off := int(uint32(r))
			a0 += lp[off]
			a1 += lp[off+1]
			a2 += lp[off+2]
			a3 += lp[off+3]
			votes[r>>32]++
		}
	}
	n := float64(len(roots))
	a0 /= n
	a1 /= n
	a2 /= n
	a3 /= n
	acc[0], acc[1], acc[2], acc[3] = a0, a1, a2, a3
	cls, best := 0, a0
	if a1 > best {
		cls, best = 1, a1
	}
	if a2 > best {
		cls, best = 2, a2
	}
	if a3 > best {
		cls = 3
	}
	return cls
}

func (cf *Forest) accumulateAny(x []float64, acc []float64, votes []int) {
	lp, lref := cf.leafProbs, cf.leafRef
	nc := cf.nClasses
	roots := cf.roots
	var li [treeChunk]int32
	for c := range acc {
		acc[c] = 0
	}
	for g := 0; g < len(roots); g += treeChunk {
		n := len(roots) - g
		if n > treeChunk {
			n = treeChunk
		}
		walkChunk(cf.nodes, x, roots[g:g+n], li[:n])
		for _, i := range li[:n] {
			r := lref[i]
			off := int(uint32(r))
			for c, p := range lp[off : off+nc] {
				acc[c] += p
			}
			votes[r>>32]++
		}
	}
}

// accumulateLeafOnly handles the degenerate zero-feature forest, where
// every tree is a single leaf.
func (cf *Forest) accumulateLeafOnly(acc []float64, votes []int) {
	lp, lref := cf.leafProbs, cf.leafRef
	nc := cf.nClasses
	for c := range acc {
		acc[c] = 0
	}
	for _, i := range cf.roots {
		r := lref[i]
		off := int(uint32(r))
		for c, p := range lp[off : off+nc] {
			acc[c] += p
		}
		votes[r>>32]++
	}
}

// finalize converts accumulated sums into the mean distribution and argmax
// class. The divides run in their own loop so they pipeline instead of each
// gating an argmax comparison; the resulting values and the argmax rule
// (strict >, lowest index wins) are exactly the pointer evaluator's.
func (cf *Forest) finalize(acc []float64) int {
	n := float64(len(cf.roots))
	for c := range acc {
		acc[c] /= n
	}
	cls := 0
	for c := range acc {
		if acc[c] > acc[cls] {
			cls = c
		}
	}
	return cls
}

// PredictInto evaluates the forest on x, writing the result into p. The
// Probs and Votes slices inside p are reused when they have sufficient
// capacity, so a caller that recycles one Prediction value pays zero
// allocations per call in steady state.
func (cf *Forest) PredictInto(x []float64, p *forest.Prediction) error {
	if len(x) < cf.nFeatures {
		return fmt.Errorf("compiled: feature vector has %d entries, forest needs %d", len(x), cf.nFeatures)
	}
	var start time.Time
	fn := cf.onPredict.Load()
	if fn != nil {
		start = time.Now()
	}
	acc := resizeFloatsCap(p.Probs, cf.nClasses)
	votes := resizeInts(p.Votes, cf.nClasses)
	p.Class = cf.accumulate(x, acc, votes)
	p.Probs = acc
	p.Votes = votes
	if fn != nil {
		(*fn)(time.Since(start).Seconds())
	}
	return nil
}

// Predict evaluates the forest on x into a fresh Prediction — the drop-in
// replacement for forest.Forest.Predict with identical results.
func (cf *Forest) Predict(x []float64) (forest.Prediction, error) {
	var p forest.Prediction
	err := cf.PredictInto(x, &p)
	return p, err
}

// resizeFloatsCap returns a length-n slice reusing s's backing array when
// capacity allows; contents are overwritten by the caller, not zeroed.
func resizeFloatsCap(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// resizeFloats returns a zeroed slice of length n, reusing s's backing
// array when capacity allows.
func resizeFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// resizeInts is resizeFloats for int slices.
func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}
