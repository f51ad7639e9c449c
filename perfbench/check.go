package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"

	"github.com/pml-mpi/pmlmpi/pkg/bundle"
	"github.com/pml-mpi/pmlmpi/pkg/loadgen"
	"github.com/pml-mpi/pmlmpi/pkg/perfmodel"
	"github.com/pml-mpi/pmlmpi/pkg/selector"
)

// checker is the correctness gate: the reference class of every generated
// point, computed before timing with the pointer walk (forest.Forest.Predict,
// the repository's test oracle) on the same bundle bytes the servers load,
// plus the perfmodel costs that regret is measured with.
type checker struct {
	ref   []int       // reference class per plan item
	costs [][]float64 // perfmodel.Costs per plan item, in class order
}

// newChecker computes the reference for every item, in parallel.
func newChecker(b *bundle.Bundle, items []loadgen.Request) (*checker, error) {
	c := &checker{
		ref:   make([]int, len(items)),
		costs: make([][]float64, len(items)),
	}
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(items); i += workers {
				if err := c.fill(b, i, &items[i]); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (c *checker) fill(b *bundle.Bundle, i int, r *loadgen.Request) error {
	coll, ok := b.Collective(r.Collective)
	if !ok {
		return fmt.Errorf("item %d: bundle has no collective %q", i, r.Collective)
	}
	x, err := coll.Vector(r.Features)
	if err != nil {
		return fmt.Errorf("item %d: %w", i, err)
	}
	pred, err := coll.Forest.Predict(x)
	if err != nil {
		return fmt.Errorf("item %d: reference walk: %w", i, err)
	}
	costs, err := perfmodel.Costs(r.Collective, r.Features)
	if err != nil {
		return fmt.Errorf("item %d: %w", i, err)
	}
	c.ref[i], c.costs[i] = pred.Class, costs
	return nil
}

// decision is the part of a served decision the gate reads.
type decision struct {
	Algorithm string `json:"algorithm"`
	Class     int    `json:"class"`
	LatencyNS int64  `json:"latency_ns"`
}

// verdict tallies checked decisions.
type verdict struct {
	decisions int     // decisions attempted
	failed    int     // non-200, malformed or wrong decisions
	regretSum float64 // Σ cost(selected)/cost(best) − 1 over regret-covered decisions
	regretN   int     // correct decisions whose algorithm perfmodel models
}

func (v *verdict) add(o verdict) {
	v.decisions += o.decisions
	v.failed += o.failed
	v.regretSum += o.regretSum
	v.regretN += o.regretN
}

// judge checks one decision against item i's reference.
func (c *checker) judge(v *verdict, i int, d *decision, collective string) {
	names := selector.DefaultAlgorithms[collective]
	ref := c.ref[i]
	if d == nil || d.Class != ref || ref >= len(names) || d.Algorithm != names[ref] {
		v.failed++
		return
	}
	// perfmodel has no cost model for some served algorithms (alltoall's
	// two_proc); those decisions are checked but carry no regret.
	costs := c.costs[i]
	if d.Class >= len(costs) {
		return
	}
	best := costs[0]
	for _, x := range costs[1:] {
		if x < best {
			best = x
		}
	}
	v.regretSum += costs[d.Class]/best - 1
	v.regretN++
}

// checkResponse judges a response to a call carrying the given items: a
// non-200, a malformed body, a missing item or a wrong answer each count
// as a failed decision.
func (c *checker) checkResponse(items []loadgen.Request, idx []int, batch bool, status int, body []byte) verdict {
	v := verdict{decisions: len(idx)}
	if status != 200 {
		v.failed = len(idx)
		return v
	}
	if !batch {
		var d decision
		if err := json.Unmarshal(body, &d); err != nil || d.Algorithm == "" {
			v.failed = 1
			return v
		}
		c.judge(&v, idx[0], &d, items[idx[0]].Collective)
		return v
	}
	var resp struct {
		Results []struct {
			Decision *decision `json:"decision"`
			Error    string    `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &resp); err != nil || len(resp.Results) != len(idx) {
		v.failed = len(idx)
		return v
	}
	for k, i := range idx {
		c.judge(&v, i, resp.Results[k].Decision, items[i].Collective)
	}
	return v
}
