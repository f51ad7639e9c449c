package compiled

import "math"

// SameArena reports whether a and b hold bit-identical arenas: shape,
// roots, packed nodes (thresholds compared by bits, so parked NaN leaves
// match), leaf payload words and leaf distributions.
func SameArena(a, b *Forest) bool {
	if a.nClasses != b.nClasses || a.nFeatures != b.nFeatures ||
		len(a.roots) != len(b.roots) || len(a.nodes) != len(b.nodes) ||
		len(a.leafRef) != len(b.leafRef) || len(a.leafProbs) != len(b.leafProbs) {
		return false
	}
	for i := range a.roots {
		if a.roots[i] != b.roots[i] {
			return false
		}
	}
	for i := range a.nodes {
		if a.nodes[i].meta != b.nodes[i].meta ||
			math.Float64bits(a.nodes[i].t) != math.Float64bits(b.nodes[i].t) ||
			a.leafRef[i] != b.leafRef[i] {
			return false
		}
	}
	for i := range a.leafProbs {
		if math.Float64bits(a.leafProbs[i]) != math.Float64bits(b.leafProbs[i]) {
			return false
		}
	}
	return true
}
