package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pml-mpi/pmlmpi/pkg/dataset"
	"github.com/pml-mpi/pmlmpi/pkg/loadgen"
	"github.com/pml-mpi/pmlmpi/pkg/perfmodel"
	"github.com/pml-mpi/pmlmpi/pkg/selector"
)

// latencyLimit is the open-loop p99 limit a rate must meet to count as
// capacity. It sits above the generator's own timer lateness on small
// machines, so the limit binds on the system, not the harness.
const latencyLimit = 10 * time.Millisecond

// caller is one synchronous client: it stands for an MPI rank waiting on
// its decision, and owns exactly one keep-alive connection.
type caller struct {
	client *http.Client
	ids    *atomic.Uint64 // shared request-ID sequence
	spans  *spanLog       // client spans; nil when untraced
}

// newCallers builds n callers, recording client spans when spans is not
// nil.
func newCallers(n int, spans *spanLog) []*caller {
	ids := new(atomic.Uint64)
	out := make([]*caller, n)
	for i := range out {
		tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
		out[i] = &caller{client: &http.Client{Transport: tr, Timeout: 30 * time.Second}, ids: ids, spans: spans}
	}
	return out
}

func closeCallers(cs []*caller) {
	for _, c := range cs {
		c.client.CloseIdleConnections()
	}
}

// post sends one request and reads the whole response. The request ID
// travels as X-Request-Id so server-side spans join the client's.
func (c *caller) post(ctx context.Context, url string, body []byte) (int, []byte, time.Duration, error) {
	id := "pb-" + strconv.FormatUint(c.ids.Add(1), 10)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", id)
	start := time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if c.spans.recording() {
		s := span{id: id, layer: "client", path: req.URL.Path, start: start, end: end, bytes: len(out)}
		if req.URL.Path == "/v1/select" {
			var d decision
			if json.Unmarshal(out, &d) == nil {
				s.selectNS = d.LatencyNS
			}
		}
		c.spans.add(s)
	}
	return resp.StatusCode, out, end.Sub(start), err
}

// selectBody encodes a call's request body.
func selectBody(items []loadgen.Request, idx []int, batch bool) ([]byte, error) {
	reqs := make([]selector.BatchRequest, len(idx))
	for k, i := range idx {
		reqs[k] = selector.BatchRequest{Collective: items[i].Collective, Features: items[i].Features}
	}
	if !batch {
		return json.Marshal(reqs[0])
	}
	return json.Marshal(struct {
		Requests []selector.BatchRequest `json:"requests"`
	}{reqs})
}

// feedbackBody encodes oracle-labelled latencies (perfmodel costs, µs) for
// the given items as one /v1/feedback batch.
func feedbackBody(items []loadgen.Request, idx []int) ([]byte, error) {
	sel := make([]loadgen.Request, len(idx))
	for k, i := range idx {
		sel[k] = items[i]
	}
	recs, err := feedbackRecords(sel)
	if err != nil {
		return nil, err
	}
	return json.Marshal(struct {
		Records []dataset.Record `json:"records"`
	}{recs})
}

// feedbackRecords labels items with their perfmodel costs in µs, the
// oracle latencies the feedback store's plausibility guard accepts.
func feedbackRecords(items []loadgen.Request) ([]dataset.Record, error) {
	table := perfmodel.Table()
	recs := make([]dataset.Record, len(items))
	for k := range items {
		costs, err := perfmodel.Costs(items[k].Collective, items[k].Features)
		if err != nil {
			return nil, err
		}
		lat := make(map[string]float64, len(costs))
		for c, name := range table[items[k].Collective] {
			lat[name] = costs[c] * 1e6
		}
		recs[k] = dataset.Record{Collective: items[k].Collective, Features: items[k].Features, LatenciesUS: lat}
	}
	return recs, nil
}

// phaseResult is what one caller, or a whole phase, observed.
type phaseResult struct {
	wall       time.Duration
	single     []time.Duration // /v1/select call latencies
	batch      []time.Duration // /v1/select/batch call latencies
	feedback   []time.Duration // /v1/feedback call latencies
	fbRecords  int
	fbAccepted int
	v          verdict
}

// selects are the latencies of the phase's select calls: its singles, or
// its batches when it sent no singles (cold-table).
func (r *phaseResult) selects() []time.Duration {
	if len(r.single) > 0 {
		return r.single
	}
	return r.batch
}

// quietest pools the quarter of the windows with the highest throughput.
func quietest(windows []*phaseResult) *phaseResult {
	ranked := append([]*phaseResult(nil), windows...)
	sort.Slice(ranked, func(a, b int) bool {
		return float64(ranked[a].v.decisions)/ranked[a].wall.Seconds() > float64(ranked[b].v.decisions)/ranked[b].wall.Seconds()
	})
	out := &phaseResult{}
	for _, w := range ranked[:(len(ranked)+3)/4] {
		out.merge(w)
	}
	return out
}

func (r *phaseResult) merge(o *phaseResult) {
	r.wall += o.wall
	r.single = append(r.single, o.single...)
	r.batch = append(r.batch, o.batch...)
	r.feedback = append(r.feedback, o.feedback...)
	r.fbRecords += o.fbRecords
	r.fbAccepted += o.fbAccepted
	r.v.add(o.v)
}

// do performs one call of the plan and judges its answer.
func (c *caller) do(ctx context.Context, base string, p *plan, ck *checker, cl call, res *phaseResult) error {
	body, err := selectBody(p.items, cl.items, cl.batch)
	if err != nil {
		return err
	}
	path := "/v1/select"
	if cl.batch {
		path = "/v1/select/batch"
	}
	status, out, dur, err := c.post(ctx, base+path, body)
	if err != nil {
		status = 0 // a transport error fails every item of the call
	}
	res.v.add(ck.checkResponse(p.items, cl.items, cl.batch, status, out))
	if cl.batch {
		res.batch = append(res.batch, dur)
	} else {
		res.single = append(res.single, dur)
	}
	if len(cl.feedback) == 0 {
		return nil
	}
	fb, err := feedbackBody(p.items, cl.feedback)
	if err != nil {
		return err
	}
	status, out, dur, err = c.post(ctx, base+"/v1/feedback", fb)
	res.feedback = append(res.feedback, dur)
	res.fbRecords += len(cl.feedback)
	var parsed struct {
		Accepted int `json:"accepted"`
	}
	if err == nil && status == http.StatusOK && json.Unmarshal(out, &parsed) == nil {
		res.fbAccepted += parsed.Accepted // records not accepted count as failed
	}
	return nil
}

// runClosed replays calls with every caller synchronous: each takes the
// next call only after its previous one completed.
func runClosed(ctx context.Context, callers []*caller, base string, p *plan, ck *checker, calls []call) (*phaseResult, error) {
	var next atomic.Int64
	results := make([]phaseResult, len(callers))
	errs := make([]error, len(callers))
	start := time.Now()
	var wg sync.WaitGroup
	for w, c := range callers {
		wg.Add(1)
		go func(w int, c *caller) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(calls) || ctx.Err() != nil {
					return
				}
				if err := c.do(ctx, base, p, ck, calls[i], &results[w]); err != nil {
					errs[w] = err
					return
				}
			}
		}(w, c)
	}
	wg.Wait()
	total := &phaseResult{wall: time.Since(start)}
	for w := range results {
		if errs[w] != nil {
			return nil, errs[w]
		}
		total.merge(&results[w])
	}
	return total, ctx.Err()
}

// stepResult is one open-loop rate step.
type stepResult struct {
	Rate           float64 `json:"rate_qps"`
	Requests       int     `json:"requests"`
	P99US          float64 `json:"p99_us"`
	LagP50US       float64 `json:"lag_p50_us"`
	LagP99US       float64 `json:"lag_p99_us"`
	Failed         int     `json:"failed"`
	CompletionRate float64 `json:"completion_qps"`
	KeptPace       bool    `json:"kept_pace"`
	HarnessLimited bool    `json:"harness_limited"`
}

// openJob is one scheduled request of an open-loop step.
type openJob struct {
	item       int
	due, ready time.Time
}

// runStep sends a Poisson schedule of single selects at rate for dur. Each
// request is timed from its due time, so a stall also charges the wait it
// imposes on later requests; lag is how late the generator itself released
// a request (due → ready), the harness's own noise floor.
func runStep(ctx context.Context, callers []*caller, base string, p *plan, ck *checker, rate float64, dur time.Duration, seed int64, first int) (stepResult, verdict, error) {
	if !(rate > 0) {
		return stepResult{}, verdict{}, fmt.Errorf("open-loop rate %v is not positive", rate)
	}
	n := max(1, int(rate*dur.Seconds()))
	offsets := loadgen.Arrivals(seed, n, rate)
	jobs := make(chan openJob, n) // sized to the schedule: the dispatcher never blocks
	var mu sync.Mutex
	lat := make([]time.Duration, 0, n)
	lag := make([]time.Duration, 0, n)
	var v verdict
	var firstErr error
	var lastDone time.Time

	var wg sync.WaitGroup
	for _, c := range callers {
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			for j := range jobs {
				cl := call{items: []int{j.item}}
				body, err := selectBody(p.items, cl.items, false)
				if err != nil {
					mu.Lock()
					firstErr = err
					mu.Unlock()
					continue
				}
				status, out, _, err := c.post(ctx, base+"/v1/select", body)
				done := time.Now()
				if err != nil {
					status = 0
				}
				jv := ck.checkResponse(p.items, cl.items, false, status, out)
				mu.Lock()
				lat = append(lat, done.Sub(j.due))
				lag = append(lag, j.ready.Sub(j.due))
				v.add(jv)
				if done.After(lastDone) {
					lastDone = done
				}
				mu.Unlock()
			}
		}(c)
	}
	start := time.Now()
	for i, off := range offsets {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		jobs <- openJob{item: p.open[(first+i)%len(p.open)], due: due, ready: time.Now()}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return stepResult{}, v, firstErr
	}
	span := lastDone.Sub(start).Seconds()
	s := stepResult{
		Rate:           rate,
		Requests:       n,
		P99US:          us(quantile(lat, 0.99)),
		LagP50US:       us(quantile(lag, 0.5)),
		LagP99US:       us(quantile(lag, 0.99)),
		Failed:         v.failed,
		CompletionRate: float64(n) / span,
	}
	offered := float64(n) / offsets[n-1].Seconds()
	s.HarnessLimited = s.LagP99US > us(latencyLimit)
	s.KeptPace = s.CompletionRate >= 0.95*offered
	return s, v, ctx.Err()
}

// The open-loop rate grid: fractions of the closed-loop rate of the same
// single selects. Every rate is stepped stepReps times, in one seeded
// order shuffled per repetition and spread between the closed phase's
// slices, so a slow spell of a shared machine falls on a few steps of
// mixed rates instead of biasing the high ones; each rate's p99 is the
// median over its repetitions.
var grid = []float64{0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2}

const stepReps = 2

// openLoop runs the grid's steps one at a time against a stack.
type openLoop struct {
	ctx     context.Context
	callers []*caller
	base    string
	p       *plan
	ck      *checker
	anchor  float64
	stepDur time.Duration
	first   int // next p.open item to send
	rng     *rand.Rand
	order   []int // grid index of every step, in run order
	byRate  [][]stepResult
	steps   []stepResult
	v       verdict
}

func newOpenLoop(ctx context.Context, callers []*caller, base string, p *plan, ck *checker, anchor float64, stepDur time.Duration, first int, seed int64) *openLoop {
	ol := &openLoop{ctx: ctx, callers: callers, base: base, p: p, ck: ck, anchor: anchor, stepDur: stepDur,
		first: first, rng: rand.New(rand.NewSource(seed)), byRate: make([][]stepResult, len(grid))}
	for r := 0; r < stepReps; r++ {
		ol.order = append(ol.order, ol.rng.Perm(len(grid))...)
	}
	return ol
}

// runUpTo runs the steps before index k of the order that have not run.
func (ol *openLoop) runUpTo(k int) error {
	for len(ol.steps) < min(k, len(ol.order)) {
		g := ol.order[len(ol.steps)]
		s, v, err := runStep(ol.ctx, ol.callers, ol.base, ol.p, ol.ck, grid[g]*ol.anchor, ol.stepDur, ol.rng.Int63(), ol.first)
		if err != nil {
			return fmt.Errorf("open loop: %w", err)
		}
		ol.first += s.Requests
		ol.v.add(v)
		ol.steps = append(ol.steps, s)
		ol.byRate[g] = append(ol.byRate[g], s)
		time.Sleep(20 * time.Millisecond) // let the step's tail drain
	}
	return nil
}

// capacity is the highest grid rate that passes, interpolated linearly on
// the median p99 between the last passing rate and the first failing one.
// A rate passes when its median p99 is within the limit, no decision
// failed, and most repetitions kept pace. Harness-limited repetitions,
// where the generator's own lateness breaks the limit, are left out of
// the median; a rate with none left fails.
func (ol *openLoop) capacity() float64 {
	prevRate, prevP99 := 0.0, 0.0
	for g, reps := range ol.byRate {
		var p99s []float64
		kept, failed := 0, 0
		for _, s := range reps {
			failed += s.Failed
			if s.HarnessLimited {
				continue
			}
			p99s = append(p99s, s.P99US)
			if s.KeptPace {
				kept++
			}
		}
		rate, p99 := grid[g]*ol.anchor, median(p99s)
		if len(p99s) > 0 && p99 <= us(latencyLimit) && failed == 0 && 2*kept > len(p99s) {
			prevRate, prevP99 = rate, p99
			continue
		}
		if len(p99s) == 0 || p99 <= us(latencyLimit) {
			return prevRate
		}
		frac := (us(latencyLimit) - prevP99) / (p99 - prevP99)
		return prevRate + math.Max(0, math.Min(1, frac))*(rate-prevRate)
	}
	return prevRate
}

// quantile returns the nearest-rank q-quantile of ds.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
