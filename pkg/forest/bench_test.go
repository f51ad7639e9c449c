package forest_test

import (
	"fmt"
	"testing"

	"github.com/pml-mpi/pmlmpi/pkg/synth"
)

// benchShapes spans the forest sizes the selector sees in practice: the
// shipped bundle's scale (tens of trees), and larger ensembles.
var benchShapes = []struct {
	trees, depth int
}{
	{16, 5},
	{64, 8},
	{256, 10},
}

func BenchmarkForestPredict(b *testing.B) {
	for _, shape := range benchShapes {
		bd := synth.MustNew(synth.Config{Seed: 99, Collectives: []string{"bench"}, Trees: shape.trees, Depth: shape.depth, Features: 6, Classes: 5})
		c := bd.Collectives["bench"]
		x, err := c.Vector(synth.Points(99, 1)[0])
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("trees=%d/depth=%d", shape.trees, shape.depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.Forest.Predict(x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
