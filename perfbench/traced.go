package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/pml-mpi/pmlmpi/pkg/bundle"
	"github.com/pml-mpi/pmlmpi/pkg/cache"
	"github.com/pml-mpi/pmlmpi/pkg/feedback"
	"github.com/pml-mpi/pmlmpi/pkg/loadgen"
	"github.com/pml-mpi/pmlmpi/pkg/obs"
	"github.com/pml-mpi/pmlmpi/pkg/selector"
)

// perLayer lists every per-layer metric of the traced run, with its unit.
// A metric whose layer a workload does not cross (the gateway outside
// fleet-hot, feedback outside cold-table) reads 0.
var perLayer = []struct{ name, unit string }{
	{"loadgen.lag_p50_us", "us"}, {"loadgen.lag_p99_us", "us"}, {"loadgen.encode_us", "us"},
	{"transport.self_us", "us"}, {"transport.conns_opened", "count"}, {"transport.resp_bytes", "bytes"},
	{"gateway.self_p50_us", "us"}, {"gateway.self_p99_us", "us"}, {"gateway.proxy_us", "us"},
	{"gateway.attempts_per_call", "ratio"}, {"gateway.fanout_per_batch", "ratio"}, {"gateway.replica_skew", "ratio"},
	{"admin.select_us", "us"}, {"admin.select_self_us", "us"}, {"admin.batch_self_us", "us"},
	{"admin.feedback_p50_us", "us"}, {"admin.feedback_p99_us", "us"}, {"admin.allocs_per_call", "count"},
	{"selector.hit_us", "us"}, {"selector.cold_p50_us", "us"}, {"selector.cold_p99_us", "us"},
	{"selector.cold_self_us", "us"}, {"selector.batch_us", "us"}, {"selector.allocs_hit", "count"},
	{"selector.allocs_cold", "count"}, {"selector.observers_us", "us"},
	{"cache.hit_share", "ratio"}, {"cache.evictions", "count"}, {"cache.entries", "count"},
	{"forest.walk_us.allgather", "us"}, {"forest.walk_us.alltoall", "us"}, {"forest.walk_share", "ratio"}, {"forest.allocs", "count"},
	{"feedback.add_p50_us", "us"}, {"feedback.add_p99_us", "us"}, {"feedback.accepted_share", "ratio"},
	{"bundle.parse_s", "s"}, {"registry.promote_s", "s"}, {"bundle.heap_mb", "MB"},
	{"runtime.gc_cycles_per_10k", "count"}, {"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_lat_share", "ratio"}, {"trace.overhead_tput_share", "ratio"}, {"trace.attributed_share", "ratio"},
}

// bundleCost is what loading the bundle cost the benchmark process.
type bundleCost struct {
	parse  time.Duration
	heapMB float64
}

// traced is the per-layer run. Phase A drives the real binaries untraced
// for the runtime and cache counters on their /metrics and the generator's
// lag. Phase B drives the same request sequence through an in-process
// stack, recording spans on every other slice. Phase C times the remaining
// layers' public calls directly on the workload's inputs.
func traced(ctx context.Context, o options, b *bundle.Bundle, data []byte, bc bundleCost, p *plan, ck *checker, runDir string, out *runOutput) error {
	m := make(map[string]float64, len(perLayer))
	for _, pl := range perLayer {
		m[pl.name] = 0
	}
	m["bundle.parse_s"] = bc.parse.Seconds()
	m["bundle.heap_mb"] = bc.heapMB

	if err := phaseA(ctx, o, p, ck, b.Hash, runDir, out, m); err != nil {
		return err
	}
	if err := phaseB(ctx, o, data, p, ck, b.Hash, runDir, out, m); err != nil {
		return err
	}
	if err := phaseC(o, b, data, p, runDir, m); err != nil {
		return err
	}
	enc, err := encodeCost(p)
	if err != nil {
		return err
	}
	m["loadgen.encode_us"] = enc
	out.Summary.Metrics = make(map[string]metric, len(perLayer))
	for _, pl := range perLayer {
		out.Summary.Metrics[pl.name] = metric{m[pl.name], pl.unit}
	}
	return nil
}

// phaseA drives the binaries; the servers sample runtime stats every
// 250ms instead of every 10s so the closed phase's GC counts are fresh.
func phaseA(ctx context.Context, o options, p *plan, ck *checker, hash, runDir string, out *runOutput, m map[string]float64) error {
	dir := filepath.Join(runDir, "binaries")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	s, _, err := startStack(ctx, stackConfig{binDir: o.bin, root: o.root, runDir: dir, fleet: o.workload == wFleet,
		feedback: o.workload == wCold, bundleHash: hash, extraServer: []string{"-runtime-metrics-interval", "250ms"}})
	if err != nil {
		return err
	}
	defer s.stop()
	callers := newCallers(runtime.NumCPU(), nil)
	defer closeCallers(callers)

	families := []string{"pmlmpi_go_gc_runs", "pmlmpi_go_gc_pause_total_seconds", "pmlmpi_cache_hits_total",
		"pmlmpi_cache_misses_total", "pmlmpi_cache_evictions_total", "pmlmpi_cache_entries"}
	var before map[string]float64
	c, err := runClosedPhase(ctx, callers, s.base, p, ck, func(stage int) (err error) {
		if stage < 0 {
			time.Sleep(300 * time.Millisecond) // one runtime sample after warm-up
			before, err = s.scrape(ctx, families...)
		}
		return err
	})
	if err != nil {
		return err
	}
	time.Sleep(300 * time.Millisecond)
	after, err := s.scrape(ctx, families...)
	if err != nil {
		return err
	}
	d := func(f string) float64 { return after[f] - before[f] }
	decisions := float64(c.all.v.decisions)
	m["runtime.gc_cycles_per_10k"] = d("pmlmpi_go_gc_runs") / decisions * 1e4
	if gcs := d("pmlmpi_go_gc_runs"); gcs > 0 {
		m["runtime.gc_pause_ms"] = d("pmlmpi_go_gc_pause_total_seconds") / gcs * 1e3
	}
	if lookups := d("pmlmpi_cache_hits_total") + d("pmlmpi_cache_misses_total"); lookups > 0 {
		m["cache.hit_share"] = d("pmlmpi_cache_hits_total") / lookups
	}
	m["cache.evictions"] = d("pmlmpi_cache_evictions_total")
	m["cache.entries"] = after["pmlmpi_cache_entries"]

	anchor, first, calib, err := calibrate(ctx, callers, s.base, p, ck, o)
	if err != nil {
		return err
	}
	st, stepV, err := runStep(ctx, callers, s.base, p, ck, grid[0]*anchor, time.Duration(o.seconds)*stepPerSecond, o.seed, first)
	if err != nil {
		return err
	}
	out.Steps = []stepResult{st}
	m["loadgen.lag_p50_us"], m["loadgen.lag_p99_us"] = st.LagP50US, st.LagP99US
	summarize(out, c, calib.v, stepV)
	return nil
}

// phaseB drives the same sequence through the in-process stack, whose
// handlers, gateway transport and callers record spans only while the
// span log is on. Tracing alternates slice by slice (even slices traced),
// so traced and plain slices share the machine's state of the moment; the
// difference between them is the tracing overhead, and the traced slices'
// spans give the transport, gateway and admin layers.
func phaseB(ctx context.Context, o options, data []byte, p *plan, ck *checker, hash, runDir string, out *runOutput, m map[string]float64) error {
	dir := filepath.Join(runDir, "inproc")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	spans := &spanLog{}
	s, err := startInproc(ctx, data, hash, dir, o.workload == wFleet, o.workload == wCold, spans)
	if err != nil {
		return err
	}
	defer s.stop()
	callers := newCallers(runtime.NumCPU(), spans)
	defer closeCallers(callers)
	c, err := runClosedPhase(ctx, callers, s.base, p, ck, func(stage int) error {
		spans.on.Store((stage+1)%2 == 0)
		return nil
	})
	if err != nil {
		return err
	}
	all := c.warm.v
	all.add(c.all.v)
	out.Summary.Attempted += all.decisions + c.all.fbRecords
	out.Summary.Failed += all.failed + c.all.fbRecords - c.all.fbAccepted
	out.Summary.Correct = out.Summary.Failed == 0

	m["registry.promote_s"] = s.nodes[0].promote.Seconds()
	m["transport.conns_opened"] = float64(s.conns.Load())
	spanMetrics(spans.snapshot(), o.workload == wCold, m)
	traced, plain := &phaseResult{}, &phaseResult{}
	for w, win := range c.windows {
		if w%2 == 0 {
			traced.merge(win)
		} else {
			plain.merge(win)
		}
	}
	tput := func(r *phaseResult) float64 { return float64(r.v.decisions) / r.wall.Seconds() }
	m["trace.overhead_lat_share"] = us(quantile(traced.selects(), 0.5))/us(quantile(plain.selects(), 0.5)) - 1
	m["trace.overhead_tput_share"] = 1 - tput(traced)/tput(plain)
	allocs, err := handlerAllocs(s.nodes[0].handler, p, o.workload != wCold)
	m["admin.allocs_per_call"] = allocs
	return err
}

// spanMetrics joins each request's spans by ID and computes the layers'
// self times. The select calls of a workload are its singles, or its
// batches on cold-table, which sends no singles.
func spanMetrics(all []span, cold bool, m map[string]float64) {
	byID := make(map[string][]span)
	for _, s := range all {
		byID[s.id] = append(byID[s.id], s)
	}
	selectPath := "/v1/select"
	if cold {
		selectPath = "/v1/select/batch"
	}
	var transport, gwSelf, proxy, handler, handlerSelf, batchHandler, feedbackH, client, selectD []time.Duration
	var resp, gwCalls, gwAttempts, gwBatches, gwFanout int
	perNode := map[string]int{}
	for _, ss := range byID {
		var c, g *span
		var proxies, servers []span
		for i := range ss {
			switch ss[i].layer {
			case "client":
				c = &ss[i]
			case "gateway":
				g = &ss[i]
			case "proxy":
				proxies = append(proxies, ss[i])
			case "server":
				servers = append(servers, ss[i])
				perNode[ss[i].node]++
			}
		}
		if c == nil {
			continue
		}
		for _, sv := range servers {
			switch sv.path {
			case "/v1/feedback":
				feedbackH = append(feedbackH, sv.dur())
			case "/v1/select/batch":
				batchHandler = append(batchHandler, sv.dur())
			}
		}
		if g != nil {
			if g.path == "/v1/select/batch" {
				gwBatches++
				gwFanout += len(proxies)
			} else {
				gwCalls++
				gwAttempts += len(proxies)
			}
		}
		if c.path != selectPath {
			continue
		}
		// Blocking-path self times: the client hop, the gateway, each
		// gateway→replica hop, then the handler around Select.
		var t time.Duration
		if g == nil {
			t = selfTime(*c, servers)
		} else {
			t = selfTime(*c, []span{*g})
			gwSelf = append(gwSelf, selfTime(*g, proxies))
			for _, px := range proxies {
				proxy = append(proxy, px.dur())
				t += selfTime(px, within(servers, px))
			}
		}
		transport = append(transport, t)
		client = append(client, c.dur())
		resp += c.bytes
		for _, sv := range servers {
			if sv.path != selectPath {
				continue
			}
			handler = append(handler, sv.dur())
			if !cold {
				handlerSelf = append(handlerSelf, sv.dur()-time.Duration(c.selectNS))
				selectD = append(selectD, time.Duration(c.selectNS))
			}
		}
	}
	m["transport.self_us"] = us(quantile(transport, 0.5))
	if len(client) > 0 {
		m["transport.resp_bytes"] = float64(resp) / float64(len(client))
	}
	m["admin.select_us"] = us(quantile(handler, 0.5))
	m["admin.select_self_us"] = us(quantile(handlerSelf, 0.5))
	m["admin.batch_self_us"] = us(quantile(batchHandler, 0.5)) // less selector.batch_us, in phaseC
	m["admin.feedback_p50_us"] = us(quantile(feedbackH, 0.5))
	m["admin.feedback_p99_us"] = us(quantile(feedbackH, 0.99))
	if len(gwSelf) > 0 {
		m["gateway.self_p50_us"] = us(quantile(gwSelf, 0.5))
		m["gateway.self_p99_us"] = us(quantile(gwSelf, 0.99))
		m["gateway.proxy_us"] = us(quantile(proxy, 0.5))
	}
	if gwCalls > 0 {
		m["gateway.attempts_per_call"] = float64(gwAttempts) / float64(gwCalls)
	}
	if gwBatches > 0 {
		m["gateway.fanout_per_batch"] = float64(gwFanout) / float64(gwBatches)
	}
	if len(perNode) > 1 {
		lo, hi := -1, 0
		for _, n := range perNode {
			if lo < 0 || n < lo {
				lo = n
			}
			hi = max(hi, n)
		}
		m["gateway.replica_skew"] = float64(hi) / float64(max(lo, 1))
	}
	// How much of the client-observed median the blocking-path self times
	// account for: medians do not add, so this is near but not exactly 1.
	attributed := m["transport.self_us"] + m["gateway.self_p50_us"] + m["admin.select_self_us"] + us(quantile(selectD, 0.5))
	if cold {
		attributed = m["transport.self_us"] + m["admin.select_us"]
	}
	if p50 := us(quantile(client, 0.5)); p50 > 0 {
		m["trace.attributed_share"] = attributed / p50
	}
}

// within returns the spans that lie inside outer.
func within(ss []span, outer span) []span {
	var out []span
	for _, s := range ss {
		if !s.start.Before(outer.start) && !s.end.After(outer.end) {
			out = append(out, s)
		}
	}
	return out
}

// handlerAllocs is the heap allocations of one /v1/select of the
// open-loop pool through the admin handler in process, less those of
// building the request and recorder themselves. With warm set every item
// is sent once first, so the count is the hit path's; cold-table's pool
// is fresh points, so there it is the miss path's.
func handlerAllocs(h http.Handler, p *plan, warm bool) (float64, error) {
	const n = 2000
	bodies := make([][]byte, n)
	for i := range bodies {
		b, err := selectBody(p.items, []int{p.open[i%len(p.open)]}, false)
		if err != nil {
			return 0, err
		}
		bodies[i] = b
	}
	measure := func(serve bool) float64 {
		var a, b runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&a)
		for _, body := range bodies {
			req := httptest.NewRequest(http.MethodPost, "/v1/select", bytes.NewReader(body))
			w := httptest.NewRecorder()
			if serve {
				h.ServeHTTP(w, req)
			}
		}
		runtime.ReadMemStats(&b)
		return float64(b.Mallocs-a.Mallocs) / n
	}
	if warm {
		measure(true)
	}
	return measure(true) - measure(false), nil
}

// phaseC times the selector, forest and feedback layers' public calls
// directly, in this process, on the workload's inputs and on fresh
// distinct points.
func phaseC(o options, b *bundle.Bundle, data []byte, p *plan, runDir string, m map[string]float64) error {
	logf, err := os.Create(filepath.Join(runDir, "probe.log"))
	if err != nil {
		return err
	}
	defer logf.Close()
	dir := filepath.Join(runDir, "probe-node")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	full, err := newNode(data, filepath.Join(dir, "node.log"), "")
	if err != nil {
		return err
	}
	defer full.close()
	bare := selector.New(b, obs.New(logf, obs.LevelInfo), selector.Config{
		Cache: cache.New(cache.Config{Shards: defaultCacheShards, MaxEntries: defaultCacheSize, TTL: defaultCacheTTL}, obs.NewRegistry()),
	})
	ctx := context.Background()

	// Hits: the workload's own items, selected once to warm the caches.
	hot := p.items[:min(len(p.items), 2000)]
	for _, sel := range []*selector.Selector{full.sel, bare} {
		for i := range hot {
			if _, err := sel.Select(ctx, hot[i].Collective, hot[i].Features); err != nil {
				return err
			}
		}
	}
	hitFull := timeSelects(ctx, full.sel, hot, 5)
	hitBare := timeSelects(ctx, bare, hot, 5)
	m["selector.hit_us"] = us(quantile(hitFull, 0.5))
	m["selector.allocs_hit"] = selectAllocs(ctx, full.sel, hot)
	m["selector.observers_us"] = us(quantile(hitFull, 0.5)) - us(quantile(hitBare, 0.5))

	// Cold: fresh distinct points, each selected once.
	rng := rand.New(rand.NewSource(o.seed ^ 0x5eed))
	fresh := distinctCold(rng, 7000)
	coldD := timeSelects(ctx, full.sel, fresh[:4000], 1)
	m["selector.cold_p50_us"] = us(quantile(coldD, 0.5))
	m["selector.cold_p99_us"] = us(quantile(coldD, 0.99))
	m["selector.allocs_cold"] = selectAllocs(ctx, full.sel, fresh[6000:])

	// Forest walk on the same points' vectors, per collective.
	var walkAll []time.Duration
	var walkAllocs float64
	for _, coll := range []string{"allgather", "alltoall"} {
		c, ok := b.Collective(coll)
		if !ok {
			return fmt.Errorf("bundle has no collective %q", coll)
		}
		var xs [][]float64
		for i := range fresh[:4000] {
			if fresh[i].Collective == coll {
				x, err := c.Vector(fresh[i].Features)
				if err != nil {
					return err
				}
				xs = append(xs, x)
			}
		}
		cf := c.Compiled()
		d := make([]time.Duration, len(xs))
		for i, x := range xs {
			start := time.Now()
			if _, err := cf.Predict(x); err != nil {
				return err
			}
			d[i] = time.Since(start)
		}
		m["forest.walk_us."+coll] = us(quantile(d, 0.5))
		walkAll = append(walkAll, d...)
		walkAllocs = allocsPer(len(xs), func() {
			for _, x := range xs {
				_, _ = cf.Predict(x) // errors were checked in the timed pass
			}
		})
	}
	m["forest.allocs"] = walkAllocs
	walk := us(quantile(walkAll, 0.5))
	m["selector.cold_self_us"] = m["selector.cold_p50_us"] - walk
	if m["selector.cold_p50_us"] > 0 {
		m["forest.walk_share"] = walk / m["selector.cold_p50_us"]
	}

	// Batches of the workload's shape: 16 warm items, or 256 fresh points.
	var batches [][]selector.BatchRequest
	if o.workload == wCold {
		for lo := 4000; lo+coldBatchItems <= 6000; lo += coldBatchItems {
			batches = append(batches, batchOf(fresh[lo:lo+coldBatchItems]))
		}
	} else {
		for lo := 0; lo+hotBatchItems <= len(hot); lo += hotBatchItems {
			batches = append(batches, batchOf(hot[lo:lo+hotBatchItems]))
		}
	}
	bd := make([]time.Duration, len(batches))
	for i, reqs := range batches {
		start := time.Now()
		full.sel.SelectBatch(ctx, reqs)
		bd[i] = time.Since(start)
	}
	m["selector.batch_us"] = us(quantile(bd, 0.5))
	if m["admin.batch_self_us"] > 0 {
		m["admin.batch_self_us"] -= m["selector.batch_us"]
	}

	if o.workload == wCold {
		return feedbackProbe(filepath.Join(runDir, "probe-feedback"), fresh[:400], m)
	}
	return nil
}

// timeSelects times Select over items, rounds times.
func timeSelects(ctx context.Context, sel *selector.Selector, items []loadgen.Request, rounds int) []time.Duration {
	d := make([]time.Duration, 0, len(items)*rounds)
	for r := 0; r < rounds; r++ {
		for i := range items {
			start := time.Now()
			_, _ = sel.Select(ctx, items[i].Collective, items[i].Features) // the inputs are valid for the bundle
			d = append(d, time.Since(start))
		}
	}
	return d
}

// selectAllocs is the heap allocations per Select over items.
func selectAllocs(ctx context.Context, sel *selector.Selector, items []loadgen.Request) float64 {
	return allocsPer(len(items), func() {
		for i := range items {
			_, _ = sel.Select(ctx, items[i].Collective, items[i].Features)
		}
	})
}

// allocsPer runs f, which makes n calls, and returns heap allocations per
// call.
func allocsPer(n int, f func()) float64 {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(max(n, 1))
}

// feedbackProbe appends oracle-labelled records to a fresh store, each
// Add an fsync'd append.
func feedbackProbe(dir string, items []loadgen.Request, m map[string]float64) error {
	store, err := feedback.NewStore(obs.NewRegistry(), feedback.Config{Dir: dir})
	if err != nil {
		return err
	}
	defer store.Close()
	recs, err := feedbackRecords(items)
	if err != nil {
		return err
	}
	d := make([]time.Duration, len(recs))
	accepted := 0
	for i := range recs {
		start := time.Now()
		out, _ := store.Add(&recs[i]) // a rejected record shows in accepted_share
		d[i] = time.Since(start)
		if out == feedback.OutcomeAccepted {
			accepted++
		}
	}
	m["feedback.add_p50_us"] = us(quantile(d, 0.5))
	m["feedback.add_p99_us"] = us(quantile(d, 0.99))
	m["feedback.accepted_share"] = float64(accepted) / float64(len(recs))
	return nil
}

// encodeCost is the generator's own encode time per call of the closed
// phase, outside the timed loop.
func encodeCost(p *plan) (float64, error) {
	d := make([]time.Duration, 0, len(p.calls))
	for _, c := range p.calls {
		start := time.Now()
		if _, err := selectBody(p.items, c.items, c.batch); err != nil {
			return 0, err
		}
		d = append(d, time.Since(start))
	}
	return us(quantile(d, 0.5)), nil
}

func batchOf(items []loadgen.Request) []selector.BatchRequest {
	out := make([]selector.BatchRequest, len(items))
	for i := range items {
		out[i] = selector.BatchRequest{Collective: items[i].Collective, Features: items[i].Features}
	}
	return out
}
