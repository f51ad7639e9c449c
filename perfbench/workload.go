package main

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/pml-mpi/pmlmpi/pkg/loadgen"
	"github.com/pml-mpi/pmlmpi/pkg/perfmodel"
	"github.com/pml-mpi/pmlmpi/pkg/selector"
)

// Workload names, the identities performance claims are judged against.
const (
	// hot-select: one server, a few hundred distinct DLcomm-style points,
	// 80% of items as single selects and 20% in 16-item batches. After
	// warm-up nearly every decision is a cache hit, so transport, handler
	// decode/encode and the selector hit path do the work and the forest
	// walk does almost none: a handler, encode or cache change shows here
	// and a walk change should not.
	wHot = "hot-select"
	// cold-table: one server with a feedback store; every call is a
	// 256-item batch of distinct points spanning the bundle's feature
	// ranges, followed by 16 oracle-labelled feedback records. The repeat
	// share is ~0, so the cache only inserts and evicts, and the walk, the
	// cold envelope, the batch pool, large-response encode and fsync'd
	// feedback appends do the work. A hit-path change should not show here.
	wCold = "cold-table"
	// fleet-hot: hot-select's exact request sequence (same sequence hash)
	// through pmlmpi-gateway to two standalone replicas. Comparing each
	// metric by name with hot-select gives the cost of the gateway hop, and
	// a gateway change shows only here.
	wFleet = "fleet-hot"
)

var workloadNames = []string{wHot, wCold, wFleet}

// Sizes of the generated inputs. Counts are fixed per second of run
// budget, never per second of wall time, so cache contents and memory do
// not depend on machine speed.
const (
	hotItemsPerSecond  = 1500 // closed-phase decisions of hot-select / fleet-hot
	coldItemsPerSecond = 3072 // closed-phase decisions of cold-table (12 batches)
	hotBatchItems      = 16
	hotBatchShare      = 0.2 // share of hot items sent inside batches
	coldBatchItems     = 256
	coldFeedbackItems  = 16
	defaultCacheSize   = 65536 // pmlmpi-server -cache-entries default
	warmBatchItems     = 256
	// coldOpenPerSecond sizes cold-table's pool of further distinct points
	// for its open-loop steps, so those single selects miss the cache too.
	coldOpenPerSecond = 3000
)

// call is one HTTP request of a plan: a single select (one item), a batch
// (several items), with optional feedback records posted after it.
type call struct {
	items    []int // indices into plan.items
	batch    bool
	feedback []int // items whose oracle latencies are POSTed after the call
}

// plan is the fully generated input of one workload run: everything the
// benchmark sends is fixed here, from the seed alone, before any request.
type plan struct {
	items []loadgen.Request // warm-up items first, then measured items
	warm  []call            // cache warm-up, not timed
	calls []call            // the fixed-count closed phase
	open  []int             // item pool cycled by the open-loop steps
}

// inputReport describes the generated inputs; later cache or partitioning
// claims cite it.
type inputReport struct {
	SequenceSHA256 string  `json:"sequence_sha256"`
	Items          int     `json:"items"`
	Calls          int     `json:"calls"`
	RepeatShare    float64 `json:"repeat_share"`
	DistinctPoints int     `json:"distinct_points"`
	CacheEntries   int     `json:"cache_entries"`
	DistinctPerCap float64 `json:"distinct_per_cache_entry"`
	WarmItems      int     `json:"warm_items"`
	WritesPerRead  float64 `json:"writes_per_read"`
}

// bundleFeatures are the collectives the paper's bundle serves and the
// feature subset each forest reads; the decision-cache key quantizes
// exactly these.
var bundleFeatures = map[string][]string{
	"allgather": {"log2_msg_size", "ppn", "num_nodes", "thread_count", "l3_cache_mib"},
	"alltoall":  {"log2_msg_size", "ppn", "num_nodes", "mem_bw_gbs", "thread_count"},
}

// cacheKey is the selector's decision-cache identity of a request for a
// fixed generation: the collective plus its forest's features quantized
// at the selector's default cache quantum.
func cacheKey(r *loadgen.Request) uint64 {
	sub := make(map[string]float64, 5)
	for _, name := range bundleFeatures[r.Collective] {
		sub[name] = r.Features[name]
	}
	return selector.PartitionKey(r.Collective, sub, selector.DefaultCacheQuantum)
}

// hotScenario is one cell of the DLcomm-style hot grid.
type hotScenario struct {
	name       string
	collective string
	weight     float64
	nodes      []float64
	ppn        []float64
	log2Sizes  []float64
	sizeSkew   float64
}

// hotScenarios: activation allgathers skewed to small payloads and MoE
// token all-to-alls, on each of perfmodel's three system profiles; 540
// distinct points in all.
var hotScenarios = []hotScenario{
	{
		name: "allgather/dl-activations", collective: "allgather", weight: 0.6,
		nodes: []float64{2, 4, 8, 16}, ppn: []float64{4, 8, 16},
		log2Sizes: []float64{10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21}, sizeSkew: 2,
	},
	{
		name: "alltoall/moe-tokens", collective: "alltoall", weight: 0.4,
		nodes: []float64{2, 4, 8}, ppn: []float64{4, 8},
		log2Sizes: []float64{12, 14, 16, 18, 20, 22},
	},
}

// buildPlan generates a workload's inputs from the seed and run budget.
func buildPlan(workload string, seed int64, seconds int) (*plan, error) {
	switch workload {
	case wHot, wFleet:
		return hotPlan(seed, seconds), nil
	case wCold:
		return coldPlan(seed, seconds), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
}

func hotPlan(seed int64, seconds int) *plan {
	rng := rand.New(rand.NewSource(seed))
	n := hotItemsPerSecond * seconds
	var total float64
	for _, sc := range hotScenarios {
		total += sc.weight
	}
	items := make([]loadgen.Request, 0, n)
	for len(items) < n {
		r := rng.Float64() * total
		sc := hotScenarios[len(hotScenarios)-1]
		for _, cand := range hotScenarios {
			if r -= cand.weight; r < 0 {
				sc = cand
				break
			}
		}
		sys := perfmodel.DefaultSystems[rng.Intn(len(perfmodel.DefaultSystems))]
		u := math.Pow(rng.Float64(), math.Max(1, sc.sizeSkew))
		size := sc.log2Sizes[int(u*float64(len(sc.log2Sizes)))]
		items = append(items, loadgen.Request{
			Index:      len(items),
			Scenario:   sc.name + "@" + sys.Name,
			Collective: sc.collective,
			Features: sys.Features(sc.nodes[rng.Intn(len(sc.nodes))],
				sc.ppn[rng.Intn(len(sc.ppn))], size),
		})
	}

	// A call is a 16-item batch with probability p, else a single; p makes
	// batched items hotBatchShare of all items: 16p / (16p + 1 - p) = share.
	p := hotBatchShare / (hotBatchItems - hotBatchShare*(hotBatchItems-1))
	var calls []call
	for i := 0; i < n; {
		if rng.Float64() < p && i+hotBatchItems <= n {
			calls = append(calls, call{items: seq(i, i+hotBatchItems), batch: true})
			i += hotBatchItems
			continue
		}
		calls = append(calls, singles([]int{i})...)
		i++
	}

	// Warm-up sends each distinct point once, so the timed phases measure
	// the steady state the workload exists for: the cache hit path.
	seen := make(map[uint64]bool)
	var distinct []int
	for i := range items {
		if k := cacheKey(&items[i]); !seen[k] {
			seen[k] = true
			distinct = append(distinct, i)
		}
	}
	return &plan{
		items: items,
		warm:  chunk(distinct, warmBatchItems),
		calls: calls,
		open:  seq(0, n),
	}
}

// coldPlan draws distinct points spanning the bundle's feature ranges (the
// split thresholds of its forests): enough warm-up points to fill the
// default cache, then the measured batches, then the open-loop pool, all
// pairwise distinct under the cache key, so every measured decision misses
// and evicts.
func coldPlan(seed int64, seconds int) *plan {
	rng := rand.New(rand.NewSource(seed))
	measured := coldItemsPerSecond * seconds
	open := coldOpenPerSecond * seconds
	total := defaultCacheSize + measured + open
	items := distinctCold(rng, total)
	var calls []call
	end := defaultCacheSize + measured
	for lo := defaultCacheSize; lo < end; lo += coldBatchItems {
		c := call{items: seq(lo, min(lo+coldBatchItems, end)), batch: true}
		for _, j := range rng.Perm(len(c.items))[:coldFeedbackItems] {
			c.feedback = append(c.feedback, c.items[j])
		}
		calls = append(calls, c)
	}
	return &plan{
		items: items,
		warm:  chunk(seq(0, defaultCacheSize), warmBatchItems),
		calls: calls,
		open:  seq(end, total),
	}
}

// drawCold draws one point spanning the bundle's feature ranges.
func drawCold(rng *rand.Rand) loadgen.Request {
	collective := "allgather"
	if rng.Intn(2) == 1 {
		collective = "alltoall"
	}
	sys := perfmodel.DefaultSystems[rng.Intn(len(perfmodel.DefaultSystems))]
	threads := float64(24 + 2*rng.Intn(121)) // 24..264, the forests' split range
	sys.CoreCount = threads / 2
	sys.L3CacheMiB = float64(16+rng.Intn(481)) / 2  // 8..248 MiB in 0.5 steps
	sys.MemBWGBs = float64(400+rng.Intn(6401)) / 10 // 40..680 GB/s
	f := sys.Features(float64(2+rng.Intn(23)), float64(1+rng.Intn(98)), float64(2+rng.Intn(21)))
	return loadgen.Request{Scenario: "cold/" + sys.Name, Collective: collective, Features: f}
}

// distinctCold draws n points that are pairwise distinct under the cache
// key, numbering them in order.
func distinctCold(rng *rand.Rand, n int) []loadgen.Request {
	seen := make(map[uint64]bool, n)
	items := make([]loadgen.Request, 0, n)
	for len(items) < n {
		r := drawCold(rng)
		if k := cacheKey(&r); !seen[k] {
			seen[k] = true
			r.Index = len(items)
			items = append(items, r)
		}
	}
	return items
}

// report computes the input properties of the measured closed phase from
// the generated inputs alone.
func (p *plan) report() (inputReport, error) {
	var ordered []loadgen.Request
	var writes int
	for _, c := range p.calls {
		for _, i := range c.items {
			ordered = append(ordered, p.items[i])
		}
		writes += len(c.feedback)
	}
	hash, err := loadgen.SequenceHash(ordered)
	if err != nil {
		return inputReport{}, err
	}
	seen := make(map[uint64]bool, len(ordered))
	repeats := 0
	for i := range ordered {
		k := cacheKey(&ordered[i])
		if seen[k] {
			repeats++
		}
		seen[k] = true
	}
	warm := 0
	for _, c := range p.warm {
		warm += len(c.items)
	}
	return inputReport{
		SequenceSHA256: hash,
		Items:          len(ordered),
		Calls:          len(p.calls),
		RepeatShare:    float64(repeats) / float64(len(ordered)),
		DistinctPoints: len(seen),
		CacheEntries:   defaultCacheSize,
		DistinctPerCap: float64(len(seen)) / defaultCacheSize,
		WarmItems:      warm,
		WritesPerRead:  float64(writes) / float64(len(ordered)),
	}, nil
}

func seq(lo, hi int) []int {
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

// singles makes one single-select call per item.
func singles(idx []int) []call {
	out := make([]call, len(idx))
	for k, i := range idx {
		out[k] = call{items: []int{i}}
	}
	return out
}

func chunk(idx []int, size int) []call {
	var out []call
	for lo := 0; lo < len(idx); lo += size {
		out = append(out, call{items: idx[lo:min(lo+size, len(idx))], batch: true})
	}
	return out
}
