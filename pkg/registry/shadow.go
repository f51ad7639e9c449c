// Shadow evaluation: while a candidate generation is staged, a configurable
// fraction of live Select traffic is also evaluated against the candidate's
// forests, off the response path, on a small worker pool. Per collective it
// records how often the candidate agrees with the serving model and how the
// candidate's evaluation latency compares to the live decision latency, so
// an operator can promote with evidence instead of hope. Results surface on
// /debug/shadow and as pmlmpi_shadow_* metrics.
package registry

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pml-mpi/pmlmpi/pkg/obs"
)

// ShadowConfig tunes a Shadow.
type ShadowConfig struct {
	// Fraction of live decisions to shadow-evaluate, in [0,1]. Sampling is
	// deterministic (every round(1/Fraction)-th offer). 0 disables
	// shadowing entirely.
	Fraction float64
	// Workers evaluating candidates off the hot path (default 2).
	Workers int
	// QueueSize bounds the task queue; offers beyond it are dropped and
	// counted, never blocking the caller (default 256).
	QueueSize int
	// Namer maps (collective, class) to an algorithm name for agreement
	// comparison and reporting. Defaults to "class_<n>". Wire the
	// selector's AlgorithmName here so both sides name classes identically.
	Namer func(collective string, class int) string
}

// shadowTask is one live decision to re-evaluate against the candidate.
type shadowTask struct {
	gen        *Generation
	collective string
	features   map[string]float64
	algorithm  string
	latencyNS  int64
}

// Shadow mirrors a sample of live traffic onto a staged candidate
// generation. It implements selector.ShadowSink. The idle cost — no
// candidate staged, or sampling skips the request — is one atomic load
// (plus an atomic add when a candidate is staged).
type Shadow struct {
	o       *obs.Obs
	workers int

	fraction float64
	stride   atomic.Uint64 // 0 = disabled; else sample every stride-th offer
	counter  atomic.Uint64

	candidate  atomic.Pointer[Generation]
	namer      atomic.Pointer[func(collective string, class int) string]
	healthSink atomic.Pointer[func(candidateGen uint64, agree bool)]

	queue chan shadowTask
	done  chan struct{}
	wg    sync.WaitGroup
	once  sync.Once

	mu    sync.Mutex
	stats map[string]*shadowCell
	// candID/candHash freeze report identity even after the candidate is
	// promoted (and the pointer cleared), so the evidence stays readable.
	candID   uint64
	candHash string

	mSamples    *obs.Counter // {collective}
	mAgreements *obs.Counter // {collective}
	mErrors     *obs.Counter // {collective, reason}
	mDropped    *obs.Counter
	mLatency    *obs.Histogram // {collective}
}

// shadowCell accumulates per-collective agreement evidence.
type shadowCell struct {
	Evidence
	errors       uint64
	sumPrimaryNS float64
	sumCandNS    float64
}

// NewShadow builds a shadow evaluator; call Start to launch its workers.
func NewShadow(o *obs.Obs, cfg ShadowConfig) *Shadow {
	workers := cfg.Workers
	if workers <= 0 {
		workers = 2
	}
	queueSize := cfg.QueueSize
	if queueSize <= 0 {
		queueSize = 256
	}
	s := &Shadow{
		o:        o,
		workers:  workers,
		fraction: cfg.Fraction,
		queue:    make(chan shadowTask, queueSize),
		done:     make(chan struct{}),
		stats:    make(map[string]*shadowCell),
		mSamples: o.Registry.Counter("pmlmpi_shadow_samples_total",
			"Live decisions mirrored to the shadow candidate.", "collective"),
		mAgreements: o.Registry.Counter("pmlmpi_shadow_agreements_total",
			"Shadow evaluations whose algorithm matched the live decision.", "collective"),
		mErrors: o.Registry.Counter("pmlmpi_shadow_errors_total",
			"Shadow evaluations that failed.", "collective", "reason"),
		mDropped: o.Registry.Counter("pmlmpi_shadow_dropped_total",
			"Shadow samples dropped because the queue was full."),
		mLatency: o.Registry.Histogram("pmlmpi_shadow_candidate_duration_seconds",
			"Wall time of one candidate forest evaluation.", obs.LatencyBuckets, "collective"),
	}
	if cfg.Namer != nil {
		s.namer.Store(&cfg.Namer)
	}
	s.setFraction(cfg.Fraction)
	return s
}

func (s *Shadow) setFraction(f float64) {
	switch {
	case f <= 0:
		s.stride.Store(0)
	case f >= 1:
		s.stride.Store(1)
	default:
		s.stride.Store(uint64(math.Round(1 / f)))
	}
}

// SetNamer wires the algorithm namer after construction (the selector is
// built after the shadow in server wiring).
func (s *Shadow) SetNamer(fn func(collective string, class int) string) {
	if fn == nil {
		s.namer.Store(nil)
		return
	}
	s.namer.Store(&fn)
}

// SetHealthSink wires an observer (typically the model-health observatory's
// RecordShadow) that receives every shadow agreement verdict keyed by the
// candidate generation. Nil clears it.
func (s *Shadow) SetHealthSink(fn func(candidateGen uint64, agree bool)) {
	if fn == nil {
		s.healthSink.Store(nil)
		return
	}
	s.healthSink.Store(&fn)
}

func (s *Shadow) name(collective string, class int) string {
	if fn := s.namer.Load(); fn != nil {
		return (*fn)(collective, class)
	}
	return fmt.Sprintf("class_%d", class)
}

// Start launches the worker pool. Idempotent.
func (s *Shadow) Start() {
	s.once.Do(func() {
		for i := 0; i < s.workers; i++ {
			s.wg.Add(1)
			go s.run()
		}
	})
}

// Stop drains queued tasks and waits for the workers to exit — the
// graceful-shutdown path. Offers arriving after Stop are dropped.
func (s *Shadow) Stop() {
	select {
	case <-s.done:
		return
	default:
	}
	close(s.done)
	s.wg.Wait()
}

func (s *Shadow) run() {
	defer s.wg.Done()
	for {
		select {
		case t := <-s.queue:
			s.evaluate(t)
		case <-s.done:
			// Drain whatever is already queued, then exit.
			for {
				select {
				case t := <-s.queue:
					s.evaluate(t)
				default:
					return
				}
			}
		}
	}
}

// SetCandidate stages gen as the shadow candidate and resets the evidence
// accumulated for any previous candidate.
func (s *Shadow) SetCandidate(g *Generation) {
	s.candidate.Store(g)
	s.mu.Lock()
	s.stats = make(map[string]*shadowCell)
	s.candID = g.id
	s.candHash = g.hash
	s.mu.Unlock()
	s.o.Logger.Info("shadow candidate staged",
		"generation", g.id, "hash", g.bundle.ShortHash(), "fraction", s.fraction)
}

// ClearCandidate stops mirroring traffic (accumulated evidence stays
// readable until the next SetCandidate).
func (s *Shadow) ClearCandidate() { s.candidate.Store(nil) }

// Candidate returns the currently staged candidate, or nil.
func (s *Shadow) Candidate() *Generation { return s.candidate.Load() }

// Offer implements selector.ShadowSink: sample the decision, copy its
// features, and enqueue it for candidate evaluation. Never blocks; a full
// queue drops the sample and counts it.
func (s *Shadow) Offer(collective string, features map[string]float64, algorithm string, class int, latencyNS int64) {
	g := s.candidate.Load()
	if g == nil {
		return
	}
	stride := s.stride.Load()
	if stride == 0 || s.counter.Add(1)%stride != 0 {
		return
	}
	f := make(map[string]float64, len(features))
	for k, v := range features {
		f[k] = v
	}
	select {
	case s.queue <- shadowTask{gen: g, collective: collective, features: f, algorithm: algorithm, latencyNS: latencyNS}:
	default:
		s.mDropped.Inc()
	}
}

// evaluate runs one mirrored decision against the candidate and folds the
// outcome into the per-collective evidence.
func (s *Shadow) evaluate(t shadowTask) {
	cell := s.cell(t.collective)

	c, ok := t.gen.bundle.Collective(t.collective)
	if !ok {
		s.fail(cell, t.collective, "unknown_collective")
		return
	}
	x, err := c.Vector(t.features)
	if err != nil {
		s.fail(cell, t.collective, "missing_feature")
		return
	}
	start := time.Now()
	pred, err := c.Forest.Predict(x)
	candNS := time.Since(start).Nanoseconds()
	if err != nil {
		s.fail(cell, t.collective, "forest_error")
		return
	}
	candAlgo := s.name(t.collective, pred.Class)
	agree := candAlgo == t.algorithm
	if sink := s.healthSink.Load(); sink != nil {
		(*sink)(t.gen.id, agree)
	}

	s.mSamples.Inc(t.collective)
	s.mLatency.Observe(float64(candNS)/1e9, t.collective)
	if agree {
		s.mAgreements.Inc(t.collective)
	}
	s.mu.Lock()
	cell.Samples++
	if agree {
		cell.Agreements++
	}
	cell.sumPrimaryNS += float64(t.latencyNS)
	cell.sumCandNS += float64(candNS)
	s.mu.Unlock()
}

func (s *Shadow) fail(cell *shadowCell, collective, reason string) {
	s.mErrors.Inc(collective, reason)
	s.mu.Lock()
	cell.errors++
	s.mu.Unlock()
}

func (s *Shadow) cell(collective string) *shadowCell {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.stats[collective]
	if !ok {
		c = &shadowCell{}
		s.stats[collective] = c
	}
	return c
}

// ShadowCollective is per-collective shadow evidence, as served on
// /debug/shadow. Latency means are in nanoseconds; the primary mean is the
// live decision latency as observed (cache hits included), the candidate
// mean is always a cold forest evaluation — the delta therefore bounds the
// worst-case cost of promoting, not the steady state, since the candidate
// would enjoy the same cache once promoted.
type ShadowCollective struct {
	Evidence
	AgreementRate      float64 `json:"agreement_rate"`
	Errors             uint64  `json:"errors"`
	PrimaryMeanNS      float64 `json:"primary_mean_latency_ns"`
	CandidateMeanNS    float64 `json:"candidate_mean_latency_ns"`
	LatencyDeltaMeanNS float64 `json:"latency_delta_mean_ns"`
}

// ShadowReport is the full /debug/shadow payload.
type ShadowReport struct {
	Enabled             bool                        `json:"enabled"`
	Fraction            float64                     `json:"fraction"`
	CandidateGeneration uint64                      `json:"candidate_generation,omitempty"`
	CandidateHash       string                      `json:"candidate_hash,omitempty"`
	Dropped             uint64                      `json:"dropped"`
	Collectives         map[string]ShadowCollective `json:"collectives"`
}

// Report snapshots the accumulated evidence. Enabled means a candidate is
// currently staged and the sampling fraction is non-zero; after a
// promotion the last candidate's evidence remains readable with
// Enabled=false.
func (s *Shadow) Report() ShadowReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep := ShadowReport{
		Enabled:             s.candidate.Load() != nil && s.stride.Load() > 0,
		Fraction:            s.fraction,
		CandidateGeneration: s.candID,
		CandidateHash:       s.candHash,
		Dropped:             uint64(s.mDropped.Value()),
		Collectives:         make(map[string]ShadowCollective, len(s.stats)),
	}
	for name, c := range s.stats {
		sc := ShadowCollective{Evidence: c.Evidence, AgreementRate: c.Rate(), Errors: c.errors}
		if c.Samples > 0 {
			n := float64(c.Samples)
			sc.PrimaryMeanNS = c.sumPrimaryNS / n
			sc.CandidateMeanNS = c.sumCandNS / n
			sc.LatencyDeltaMeanNS = sc.CandidateMeanNS - sc.PrimaryMeanNS
		}
		rep.Collectives[name] = sc
	}
	return rep
}

// Evidence sums the agreement evidence over every collective. Callers
// check CandidateHash or CandidateGeneration first to confirm the report
// is about their candidate.
func (r ShadowReport) Evidence() Evidence {
	var e Evidence
	for _, c := range r.Collectives {
		e.Samples += c.Samples
		e.Agreements += c.Agreements
	}
	return e
}
