package retrain

import (
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pml-mpi/pmlmpi/pkg/dataset"
	"github.com/pml-mpi/pmlmpi/pkg/feedback"
	"github.com/pml-mpi/pmlmpi/pkg/obs"
	"github.com/pml-mpi/pmlmpi/pkg/perfmodel"
	"github.com/pml-mpi/pmlmpi/pkg/registry"
	"github.com/pml-mpi/pmlmpi/pkg/train"
)

// testSweep is the small analytical base grid controllers blend under the
// feedback records in these tests: broadcast only, one system, 32 points.
func testSweep() perfmodel.SweepConfig {
	return perfmodel.SweepConfig{
		Collectives:  []string{"broadcast"},
		Nodes:        []float64{2, 4, 8, 16},
		PPN:          []float64{2, 8},
		Log2MsgSizes: []float64{4, 10, 16, 22},
		Systems:      perfmodel.DefaultSystems[:1],
	}
}

// trainNarrowIncumbent fits a deliberately weak incumbent on a sliver of
// the feature space and returns its serialized bundle.
func trainNarrowIncumbent(t testing.TB, dir string) []byte {
	t.Helper()
	ds, err := perfmodel.Sweep(perfmodel.SweepConfig{
		Collectives:  []string{"broadcast"},
		Nodes:        []float64{2},
		PPN:          []float64{2},
		Log2MsgSizes: []float64{4, 6},
		Systems:      perfmodel.DefaultSystems[:1],
	})
	if err != nil {
		t.Fatalf("narrow sweep: %v", err)
	}
	b, _, err := train.TrainBundle(ds, train.BundleConfig{
		Config:    train.Config{Trees: 4, MaxDepth: 4, Seed: 3},
		TrainedOn: []string{"narrow"},
	})
	if err != nil {
		t.Fatalf("train incumbent: %v", err)
	}
	data, err := b.WriteFile(filepath.Join(dir, "incumbent.json"))
	if err != nil {
		t.Fatalf("write incumbent: %v", err)
	}
	return data
}

// seedFeedback adds oracle-labeled records across a wide broadcast grid,
// none of which coincide with testSweep's points.
func seedFeedback(t testing.TB, s *feedback.Store) int {
	t.Helper()
	added := 0
	for _, nodes := range []float64{3, 6, 12, 24, 48, 96} {
		for _, ppn := range []float64{4, 16} {
			for _, lm := range []float64{6, 12, 18, 24} {
				rec := oracleRecord(t, "broadcast", nodes, ppn, lm)
				if out, err := s.Add(rec); out != feedback.OutcomeAccepted {
					t.Fatalf("seed nodes=%v ppn=%v lm=%v: outcome %s err %v", nodes, ppn, lm, out, err)
				}
				added++
			}
		}
	}
	return added
}

// oracleRecord mirrors the feedback package's test helper: latencies are
// the analytical costs in microseconds, so the argmin matches the oracle.
func oracleRecord(t testing.TB, collective string, nodes, ppn, lm float64) *dataset.Record {
	t.Helper()
	f := perfmodel.DefaultSystems[0].Features(nodes, ppn, lm)
	costs, err := perfmodel.Costs(collective, f)
	if err != nil {
		t.Fatalf("oracle costs: %v", err)
	}
	algos := perfmodel.Table()[collective]
	lat := make(map[string]float64, len(algos))
	for i, name := range algos {
		lat[name] = costs[i] * 1e6
	}
	return &dataset.Record{Collective: collective, Features: f, LatenciesUS: lat}
}

// harness is the wired store + registry + incumbent every controller test
// starts from.
type harness struct {
	o      *obs.Obs
	store  *feedback.Store
	shadow *registry.Shadow
	reg    *registry.Registry
	incGen uint64
}

func newHarness(t testing.TB) *harness {
	t.Helper()
	o := obs.NewForTest()
	store, err := feedback.NewStore(o.Registry, feedback.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("feedback store: %v", err)
	}
	t.Cleanup(func() { store.Close() })
	shadow := registry.NewShadow(o, registry.ShadowConfig{Fraction: 1})
	reg := registry.New(o, registry.Config{Keep: 4, Shadow: shadow})
	g, err := reg.LoadData(trainNarrowIncumbent(t, t.TempDir()), "incumbent")
	if err != nil {
		t.Fatalf("load incumbent: %v", err)
	}
	if _, err := reg.Promote(g.ID()); err != nil {
		t.Fatalf("promote incumbent: %v", err)
	}
	return &harness{o: o, store: store, shadow: shadow, reg: reg, incGen: g.ID()}
}

func (h *harness) controller(t testing.TB, cfg Config) *Controller {
	t.Helper()
	if cfg.MinRecords == 0 {
		cfg.MinRecords = 16
	}
	if cfg.Seed == 0 {
		cfg.Seed = 7
	}
	if cfg.Sweep.Collectives == nil {
		cfg.Sweep = testSweep()
	}
	if cfg.Trainer.Trees == 0 {
		cfg.Trainer = train.Config{Trees: 8, MaxDepth: 8}
	}
	if cfg.HoldoutFloor == 0 {
		cfg.HoldoutFloor = 0.5
	}
	if cfg.MarginSlack == 0 {
		// The tiny 4-tree incumbent votes unanimously everywhere (margin
		// 1.0), so a realistic candidate can only win with generous slack.
		cfg.MarginSlack = 0.5
	}
	if cfg.OutDir == "" {
		cfg.OutDir = t.TempDir()
	}
	c, err := New(h.o, cfg, Deps{Store: h.store, Registry: h.reg, Shadow: h.shadow})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestRunCycleSkipsBelowMinRecords(t *testing.T) {
	h := newHarness(t)
	c := h.controller(t, Config{MinRecords: 16})
	v := c.RunCycle("manual")
	if v.Outcome != OutcomeSkippedRecords {
		t.Fatalf("outcome = %s, want %s (detail %q)", v.Outcome, OutcomeSkippedRecords, v.Detail)
	}
	if _, gen := h.reg.Active(); gen != h.incGen {
		t.Fatalf("skip cycle changed the active generation to %d", gen)
	}
	if c.State() != StateIdle {
		t.Fatalf("controller left in state %s", c.State())
	}
}

func TestRunCyclePromotesWinningCandidate(t *testing.T) {
	h := newHarness(t)
	n := seedFeedback(t, h.store)
	c := h.controller(t, Config{})

	v := c.RunCycle("manual")
	if v.Outcome != OutcomePromoted {
		t.Fatalf("outcome = %s detail %q, want %s", v.Outcome, v.Detail, OutcomePromoted)
	}
	if v.FeedbackRecords != n {
		t.Fatalf("verdict counted %d feedback records, want %d", v.FeedbackRecords, n)
	}
	if v.SweepExamples == 0 || v.TrainExamples == 0 || v.HoldoutExamples == 0 {
		t.Fatalf("verdict dataset sizes = %+v", v)
	}
	if v.CandidateAccuracy < 0.5 {
		t.Fatalf("candidate holdout accuracy %.4f below the test floor", v.CandidateAccuracy)
	}
	_, gen := h.reg.Active()
	if gen != v.CandidateGeneration || gen == h.incGen {
		t.Fatalf("active generation %d, want promoted candidate %d", gen, v.CandidateGeneration)
	}
	// Promotion clears the shadow candidate via the registry.
	if h.shadow.Candidate() != nil {
		t.Fatal("shadow candidate still staged after promotion")
	}

	rep := c.Report()
	if rep.Cycles != 1 || rep.Promoted != 1 || len(rep.Verdicts) != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Verdicts[0].Cycle != v.Cycle {
		t.Fatalf("report verdict cycle %d, want %d", rep.Verdicts[0].Cycle, v.Cycle)
	}
	sum := c.Summarize()
	if sum.LastOutcome != OutcomePromoted || sum.Promoted != 1 || sum.State != StateIdle {
		t.Fatalf("summary = %+v", sum)
	}
}

func TestRunCycleRetiresLosingCandidate(t *testing.T) {
	h := newHarness(t)
	seedFeedback(t, h.store)
	// An unreachable accuracy floor forces every candidate to lose.
	c := h.controller(t, Config{HoldoutFloor: 1.01})

	v := c.RunCycle("manual")
	if v.Outcome != OutcomeRetired {
		t.Fatalf("outcome = %s detail %q, want %s", v.Outcome, v.Detail, OutcomeRetired)
	}
	if !strings.Contains(v.Detail, "below floor") {
		t.Fatalf("retirement detail %q does not name the failed clause", v.Detail)
	}
	if _, gen := h.reg.Active(); gen != h.incGen {
		t.Fatalf("losing candidate went active: generation %d", gen)
	}
	// The loser must stop receiving mirrored traffic.
	if h.shadow.Candidate() != nil {
		t.Fatal("shadow candidate still staged after retirement")
	}
	if rep := c.Report(); rep.Retired != 1 {
		t.Fatalf("report retired = %d, want 1", rep.Retired)
	}
}

func TestRunCycleRetiresCandidateWithoutShadowVerdict(t *testing.T) {
	h := newHarness(t)
	seedFeedback(t, h.store)
	// No traffic reaches the shadow evaluator, so the gate stays pending
	// until the timeout and the candidate must not win on silence.
	c := h.controller(t, Config{
		ShadowGate:    registry.Gate{MinSamples: 8},
		ShadowTimeout: 100 * time.Millisecond,
	})
	v := c.RunCycle("manual")
	if v.Outcome != OutcomeRetired {
		t.Fatalf("outcome = %s detail %q, want %s", v.Outcome, v.Detail, OutcomeRetired)
	}
	if !strings.Contains(v.Detail, "0/8 shadow samples") {
		t.Fatalf("retirement detail %q does not report the pending shadow evidence", v.Detail)
	}
	if _, gen := h.reg.Active(); gen != h.incGen {
		t.Fatalf("candidate without shadow evidence went active: generation %d", gen)
	}
}

// TestReportCountsOnlyPublishedCycles runs fast skip cycles while readers
// poll Report and Summarize: a cycle must never be counted before its
// verdict is readable.
func TestReportCountsOnlyPublishedCycles(t *testing.T) {
	h := newHarness(t)
	const history = 8
	c := h.controller(t, Config{MinRecords: 1 << 20, History: history})

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				rep := c.Report()
				if want := min(rep.Cycles, history); uint64(len(rep.Verdicts)) != want {
					t.Errorf("report shows %d cycles but %d verdicts", rep.Cycles, len(rep.Verdicts))
					return
				}
				if len(rep.Verdicts) > 0 && rep.Verdicts[0].Cycle != rep.Cycles {
					t.Errorf("newest verdict is cycle %d, report counts %d", rep.Verdicts[0].Cycle, rep.Cycles)
					return
				}
				if sum := c.Summarize(); sum.Cycles > 0 && sum.LastOutcome == "" {
					t.Errorf("summary counts %d cycles with no last outcome", sum.Cycles)
					return
				}
			}
		}()
	}
	for i := 0; i < 500; i++ {
		if v := c.RunCycle("manual"); v.Outcome != OutcomeSkippedRecords {
			t.Fatalf("cycle %d outcome = %s, want %s", i, v.Outcome, OutcomeSkippedRecords)
		}
	}
	stop.Store(true)
	wg.Wait()
	if rep := c.Report(); rep.Cycles != 500 || len(rep.Verdicts) != history {
		t.Fatalf("final report: %d cycles, %d verdicts", rep.Cycles, len(rep.Verdicts))
	}
}

func TestRunCycleManualPolicyStagesWinner(t *testing.T) {
	h := newHarness(t)
	seedFeedback(t, h.store)
	c := h.controller(t, Config{PromotePolicy: PolicyManual})

	v := c.RunCycle("manual")
	if v.Outcome != OutcomeStaged {
		t.Fatalf("outcome = %s detail %q, want %s", v.Outcome, v.Detail, OutcomeStaged)
	}
	if _, gen := h.reg.Active(); gen != h.incGen {
		t.Fatalf("manual policy promoted anyway: generation %d", gen)
	}
	// The winner stays staged for an operator promote.
	g, ok := h.reg.Generation(v.CandidateGeneration)
	if !ok {
		t.Fatalf("staged winner %d evicted", v.CandidateGeneration)
	}
	if _, err := h.reg.Promote(g.ID()); err != nil {
		t.Fatalf("operator promote of staged winner: %v", err)
	}
}

func TestRunCycleSkipsDuplicateCandidate(t *testing.T) {
	h := newHarness(t)
	seedFeedback(t, h.store)
	c1 := h.controller(t, Config{Seed: 11, OutDir: t.TempDir()})
	if v := c1.RunCycle("manual"); v.Outcome != OutcomePromoted {
		t.Fatalf("first cycle outcome = %s detail %q", v.Outcome, v.Detail)
	}
	// A fresh controller with the same seed trains a byte-identical bundle
	// on the unchanged data; staging it dedups onto the active generation.
	c2 := h.controller(t, Config{Seed: 11, OutDir: t.TempDir()})
	v := c2.RunCycle("manual")
	if v.Outcome != OutcomeSkippedDuplicate {
		t.Fatalf("second cycle outcome = %s detail %q, want %s", v.Outcome, v.Detail, OutcomeSkippedDuplicate)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	h := newHarness(t)
	if _, err := New(h.o, Config{}, Deps{Store: h.store}); err == nil {
		t.Fatal("New accepted nil Registry")
	}
	if _, err := New(h.o, Config{PromotePolicy: "yolo"}, Deps{Store: h.store, Registry: h.reg}); err == nil {
		t.Fatal("New accepted unknown promote policy")
	}
	if !ValidPolicy(PolicyAuto) || !ValidPolicy(PolicyManual) || ValidPolicy("x") {
		t.Fatal("ValidPolicy misclassifies")
	}
}
