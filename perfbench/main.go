// Command perfbench is the repository's benchmark: it starts the real
// serving binaries on the paper's bundle (.pmlbench/bundle_all_full.json)
// with their default flags, drives one named workload from a single
// generator process with a seeded input, checks every decision against the
// pointer-walk reference, and prints each metric by name and unit. The
// last line of standard output is a JSON summary.
//
// With -trace 1 it makes the separate traced run instead: spans recorded
// around the public seams of each package give the per-layer metrics.
//
// Run it through run.sh, which builds everything from source first:
//
//	bash perfbench/run.sh --workload hot-select --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/pml-mpi/pmlmpi/pkg/bundle"
)

// bundlePath is the paper's 60/100-tree bundle, relative to the repository
// root; pmlmpi-server loads the same path by default.
const bundlePath = ".pmlbench/bundle_all_full.json"

// setupRepeats is how many times a run starts its stack; setup_s is the
// median, and the last start serves the workload.
const setupRepeats = 3

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string
	bin      string
}

// metric is one named, unit-carrying result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// descriptor pins the machine and inputs a result was measured on.
type descriptor struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Commit     string `json:"commit"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	BundleHash string `json:"bundle_hash"`
}

// runOutput is everything one run measured, written to
// .bench_build/results/ next to the printed summary.
type runOutput struct {
	Descriptor descriptor        `json:"descriptor"`
	Inputs     inputReport       `json:"inputs"`
	Summary    summary           `json:"summary"`
	Extra      map[string]metric `json:"extra,omitempty"`
	Setups     []float64         `json:"setup_seconds"`
	Steps      []stepResult      `json:"open_loop_steps,omitempty"`
	Windows    []float64         `json:"closed_window_tput_rps,omitempty"`
	Notes      []string          `json:"notes,omitempty"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload inputs are generated from")
	flag.IntVar(&o.seconds, "seconds", 10, "run budget in seconds; sizes the fixed-count phase and the open-loop search")
	traceFlag := flag.Int("trace", 0, "1 makes the traced run that reports per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "repository root (holds go.mod and the bundle)")
	flag.StringVar(&o.bin, "bin", ".bench_build/bin", "directory holding pmlmpi-server and pmlmpi-gateway")
	refAddr := flag.String("reference-server", "", "serve the reference echo on this address instead (the benchmark starts it itself)")
	flag.Parse()
	if *refAddr != "" {
		if err := serveReference(*refAddr); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: reference server:", err)
			os.Exit(1)
		}
		return
	}
	o.trace = *traceFlag == 1
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	out, err := run(ctx, o)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := writeResult(o, out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out.Summary)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(ctx context.Context, o options) (*runOutput, error) {
	p, err := buildPlan(o.workload, o.seed, o.seconds)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(o.root, bundlePath))
	if err != nil {
		return nil, fmt.Errorf("read bundle: %w", err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	parseStart := time.Now()
	b, err := bundle.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("parse bundle: %w", err)
	}
	bc := bundleCost{parse: time.Since(parseStart)}
	runtime.GC()
	runtime.ReadMemStats(&after)
	bc.heapMB = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / (1 << 20)

	inputs, err := p.report()
	if err != nil {
		return nil, err
	}
	out := &runOutput{Descriptor: describe(o, b.Hash), Inputs: inputs}
	printJSON("descriptor", out.Descriptor)
	printJSON("inputs", out.Inputs)

	ck, err := newChecker(b, p.items)
	if err != nil {
		return nil, err
	}
	runDir := filepath.Join(o.root, ".bench_build", "run", o.workload)
	if err := os.RemoveAll(runDir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir) // server logs and feedback segments are large
	if o.trace {
		err = traced(ctx, o, b, data, bc, p, ck, runDir, out)
	} else {
		err = endToEnd(ctx, o, p, ck, b.Hash, runDir, out)
	}
	if err != nil {
		return nil, err
	}
	printMetrics(out)
	return out, nil
}

// startMeasured starts the workload's stack setupRepeats times, stopping
// all but the last, and returns the last with every set-up time.
func startMeasured(ctx context.Context, cfg stackConfig, runDir string) (*stack, []float64, error) {
	var setups []float64
	for k := 0; ; k++ {
		cfg.runDir = filepath.Join(runDir, fmt.Sprintf("setup-%d", k))
		if err := os.MkdirAll(cfg.runDir, 0o755); err != nil {
			return nil, nil, err
		}
		s, d, err := startStack(ctx, cfg)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, d.Seconds())
		if k == setupRepeats-1 {
			return s, setups, nil
		}
		s.stop()
	}
}

// endToEnd is the untraced run: real binaries, end-to-end metrics only.
func endToEnd(ctx context.Context, o options, p *plan, ck *checker, hash, runDir string, out *runOutput) error {
	cfg := stackConfig{binDir: o.bin, root: o.root, fleet: o.workload == wFleet, feedback: o.workload == wCold, bundleHash: hash}
	s, setups, err := startMeasured(ctx, cfg, runDir)
	if err != nil {
		return err
	}
	defer s.stop()
	out.Setups = setups

	ref, err := startReference(ctx)
	if err != nil {
		return err
	}
	defer ref.stop()
	callers := newCallers(runtime.NumCPU(), nil)
	defer closeCallers(callers)
	m, err := drive(ctx, callers, s, ref, p, ck, o, out)
	if err != nil {
		return err
	}
	m["setup_s"] = metric{median(setups), "s"}
	out.Summary.Metrics = m
	return nil
}

// closedRun is a warm-up plus the fixed-count closed phase, timed in
// closedWindows consecutive slices of the call list.
type closedRun struct {
	warm, all, quiet *phaseResult
	windows          []*phaseResult
}

// between, when not nil, runs after the warm-up (stage -1) and after each
// timed slice (stage = the slice's index); its time is not counted.
func runClosedPhase(ctx context.Context, callers []*caller, base string, p *plan, ck *checker, between func(stage int) error) (*closedRun, error) {
	warm, err := runClosed(ctx, callers, base, p, ck, p.warm)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if between != nil {
		if err := between(-1); err != nil {
			return nil, err
		}
	}
	c := &closedRun{warm: warm, all: &phaseResult{}, windows: make([]*phaseResult, closedWindows)}
	for w := range c.windows {
		lo, hi := w*len(p.calls)/closedWindows, (w+1)*len(p.calls)/closedWindows
		r, err := runClosed(ctx, callers, base, p, ck, p.calls[lo:hi])
		if err != nil {
			return nil, fmt.Errorf("closed phase: %w", err)
		}
		c.windows[w] = r
		c.all.merge(r)
		if between != nil {
			if err := between(w); err != nil {
				return nil, err
			}
		}
	}
	c.quiet = quietest(c.windows)
	return c, nil
}

// absolute are the closed phase's timings in absolute units. Other tenants
// of a small shared machine slow it in bursts, and a slow spell only ever
// slows a slice, so they come from the least-disturbed quarter of the
// slices (those with the highest throughput), pooled.
func (c *closedRun) absolute() map[string]metric {
	return map[string]metric{
		"tput_rps":     {float64(c.quiet.v.decisions) / c.quiet.wall.Seconds(), "1/s"},
		"lat_p50_us":   {us(quantile(c.quiet.selects(), 0.5)), "us"},
		"lat_p99_us":   {us(quantile(c.quiet.selects(), 0.99)), "us"},
		"batch_p50_us": {us(quantile(c.quiet.batch, 0.5)), "us"},
	}
}

// gated are the end-to-end metrics BENCHMARK.json bounds, other than
// setup_s: the timings relative to the reference server, the paper's
// regret, and peak memory.
func (c *closedRun) gated(refTput, refP50 []float64, rssMB float64) map[string]metric {
	m := relative(c, refTput, refP50)
	m["regret_mean"] = metric{c.all.v.regretSum / float64(max(c.all.v.regretN, 1)), "ratio"}
	m["rss_mb"] = metric{rssMB, "MB"}
	return m
}

// calibrate runs a closed loop of the open-loop pool's first single
// selects; its rate anchors the open-loop grid.
func calibrate(ctx context.Context, callers []*caller, base string, p *plan, ck *checker, o options) (float64, int, *phaseResult, error) {
	n := calibPerSecond * o.seconds
	calib, err := runClosed(ctx, callers, base, p, ck, singles(p.open[:n]))
	if err != nil {
		return 0, 0, nil, fmt.Errorf("calibration: %w", err)
	}
	return float64(len(calib.single)) / calib.wall.Seconds(), n, calib, nil
}

// drive runs warm-up, the open-loop calibration, then the closed phase's
// slices with the open-loop grid's steps spread between them, against a
// started stack. It fills the summary counts and returns the end-to-end
// metrics other than setup_s.
func drive(ctx context.Context, callers []*caller, s *stack, ref *reference, p *plan, ck *checker, o options, out *runOutput) (map[string]metric, error) {
	var ol *openLoop
	var calib *phaseResult
	// The reference echoes the workload's first select bodies.
	var refBodies [][]byte
	for i := range p.items[:64] {
		b, err := selectBody(p.items, []int{i}, false)
		if err != nil {
			return nil, err
		}
		refBodies = append(refBodies, b)
	}
	var refTput, refP50 []float64
	c, err := runClosedPhase(ctx, callers, s.base, p, ck, func(stage int) error {
		if stage >= 0 {
			rt, rp, err := ref.window(ctx, callers, refBodies, refCalls)
			if err != nil {
				return err
			}
			refTput, refP50 = append(refTput, rt), append(refP50, us(rp))
			return ol.runUpTo((stage + 1) * len(ol.order) / closedWindows)
		}
		anchor, first, r, err := calibrate(ctx, callers, s.base, p, ck, o)
		calib = r
		ol = newOpenLoop(ctx, callers, s.base, p, ck, anchor, time.Duration(o.seconds)*stepPerSecond, first, o.seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	rss, err := s.peakRSSMB()
	if err != nil {
		return nil, err
	}
	out.Steps = ol.steps
	for _, w := range c.windows {
		out.Windows = append(out.Windows, float64(w.v.decisions)/w.wall.Seconds())
	}
	summarize(out, c, calib.v, ol.v)

	for k, v := range c.absolute() {
		out.Extra[k] = v
	}
	out.Extra["capacity_qps"] = metric{ol.capacity(), "1/s"}
	out.Extra["ref_tput_rps"] = metric{median(refTput), "1/s"}
	out.Extra["ref_p50_us"] = metric{median(refP50), "us"}
	out.Extra["regret_covered_share"] = metric{float64(c.all.v.regretN) / float64(max(c.all.v.decisions, 1)), "ratio"}
	if o.workload == wCold {
		out.Extra["feedback_p50_us"] = metric{us(quantile(c.all.feedback, 0.5)), "us"}
		out.Extra["feedback_p99_us"] = metric{us(quantile(c.all.feedback, 0.99)), "us"}
		out.Extra["feedback_rps"] = metric{float64(c.all.fbAccepted) / c.all.wall.Seconds(), "1/s"}
	}
	for _, st := range ol.steps {
		if st.HarnessLimited {
			out.Notes = append(out.Notes, fmt.Sprintf("open-loop step at %.0f qps is harness-limited (generator lag p99 %.0f us)", st.Rate, st.LagP99US))
		}
	}
	return c.gated(refTput, refP50, rss), nil
}

// relative divides each closed slice's throughput and median latencies by
// those of the reference window that followed it, and takes the median
// over slices. A slice and its reference window run seconds apart at
// most, so the machine's drift over minutes cancels out of the ratio.
func relative(c *closedRun, refTput, refP50 []float64) map[string]metric {
	var tput, lat, batch []float64
	for w, win := range c.windows {
		tput = append(tput, float64(win.v.decisions)/win.wall.Seconds()/refTput[w])
		lat = append(lat, us(quantile(win.selects(), 0.5))/refP50[w])
		if len(win.batch) > 0 {
			batch = append(batch, us(quantile(win.batch, 0.5))/refP50[w])
		}
	}
	return map[string]metric{
		"tput_rel":      {median(tput), "ratio"},
		"lat_p50_rel":   {median(lat), "ratio"},
		"batch_p50_rel": {median(batch), "ratio"},
	}
}

// summarize fills the summary's counts from every checked decision and
// feedback record of a run.
func summarize(out *runOutput, c *closedRun, more ...verdict) {
	all := c.warm.v
	all.add(c.all.v)
	for _, v := range more {
		all.add(v)
	}
	out.Summary.Attempted = all.decisions + c.all.fbRecords
	out.Summary.Failed = all.failed + c.all.fbRecords - c.all.fbAccepted
	out.Summary.Correct = out.Summary.Failed == 0
	if out.Extra == nil {
		out.Extra = map[string]metric{}
	}
	out.Extra["fail_ratio"] = metric{float64(out.Summary.Failed) / float64(max(out.Summary.Attempted, 1)), "ratio"}
}

// Phase sizes. The closed phase is timed in closedWindows slices, each
// followed by refCalls calls to the reference server; the open-loop
// calibration sends calibPerSecond single selects per second of
// run budget, and each open-loop step lasts stepPerSecond per second of
// budget.
const (
	closedWindows  = 30
	refCalls       = 600
	calibPerSecond = 200
	stepPerSecond  = 20 * time.Millisecond
)

func describe(o options, hash string) descriptor {
	return descriptor{
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
		Commit:     commit(o.root),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		BundleHash: hash,
	}
}

// commit names the source revision: git's HEAD when the checkout is a
// repository, else the revision stamped into this binary, else "unknown".
func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if b, err := cmd.Output(); err == nil {
		return strings.TrimSpace(string(b))
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func printJSON(label string, v any) {
	b, _ := json.Marshal(v) // plain structs of numbers and strings always encode
	fmt.Printf("%s %s\n", label, b)
}

func printMetrics(out *runOutput) {
	for _, group := range []map[string]metric{out.Summary.Metrics, out.Extra} {
		names := make([]string, 0, len(group))
		for n := range group {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("metric %-28s %14.4f %s\n", n, group[n].Value, group[n].Unit)
		}
	}
	for _, st := range out.Steps {
		fmt.Printf("step rate=%.0f n=%d p99_us=%.0f lag_p50_us=%.0f lag_p99_us=%.0f done_qps=%.0f failed=%d kept_pace=%v harness_limited=%v\n",
			st.Rate, st.Requests, st.P99US, st.LagP50US, st.LagP99US, st.CompletionRate, st.Failed, st.KeptPace, st.HarnessLimited)
	}
	for _, n := range out.Notes {
		fmt.Println("note", n)
	}
}

func writeResult(o options, out *runOutput) error {
	dir := filepath.Join(o.root, ".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v.json", o.workload, o.seed, map[bool]int{false: 0, true: 1}[o.trace])
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
