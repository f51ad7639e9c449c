// Command pmlmpi-server runs the PML-MPI algorithm-selection service: it
// loads the pre-trained model bundle into a versioned registry and serves
// selections plus the full observability surface (/metrics, /healthz,
// /debug/decisions, /debug/traces, /debug/analytics, /debug/shadow,
// optional /debug/pprof, /v1/select, /v1/registry). Bundles can be
// hot-swapped at runtime via the registry endpoints or the -bundle-watch
// poller, with optional shadow evaluation of staged candidates. With
// -feedback-dir set, /v1/feedback ingests observed latencies and the
// retrain controller (/debug/retrain) closes the self-tuning loop.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/pml-mpi/pmlmpi/pkg/admin"
	"github.com/pml-mpi/pmlmpi/pkg/buildinfo"
	"github.com/pml-mpi/pmlmpi/pkg/cache"
	"github.com/pml-mpi/pmlmpi/pkg/feedback"
	"github.com/pml-mpi/pmlmpi/pkg/modelhealth"
	"github.com/pml-mpi/pmlmpi/pkg/obs"
	"github.com/pml-mpi/pmlmpi/pkg/registry"
	"github.com/pml-mpi/pmlmpi/pkg/replica"
	"github.com/pml-mpi/pmlmpi/pkg/retrain"
	"github.com/pml-mpi/pmlmpi/pkg/selector"
	"github.com/pml-mpi/pmlmpi/pkg/slo"
)

// options collects the flag-derived server configuration.
type options struct {
	bundlePath   string
	addr         string
	ringSize     int
	cacheEntries int
	cacheShards  int
	cacheTTL     time.Duration
	batchWorkers int
	forestEval   string

	registryKeep   int
	bundleWatch    bool
	watchInterval  time.Duration
	shadowFraction float64
	shadowWorkers  int
	shadowQueue    int

	sloSelectP99    time.Duration
	sloAvailability float64

	driftWindow   int
	driftAlertPSI float64
	marginWarn    float64
	flightrecSize int

	feedbackDir         string
	retrainInterval     time.Duration
	retrainMinRecords   int
	retrainDriftWindows int
	promotePolicy       string

	controlPlane string
	replicaID    string
	advertise    string
	manifestPoll time.Duration
	stageSoak    time.Duration
	soakGate     registry.Gate

	traceSampleRate float64
	traceCapacity   int
	pprof           bool
	runtimeInterval time.Duration
	shutdownTimeout time.Duration
}

func main() {
	var (
		bundlePath = flag.String("bundle", ".pmlbench/bundle_all_full.json", "path to the model bundle JSON")
		addr       = flag.String("addr", ":8080", "listen address for the HTTP surface")
		logLevel   = flag.String("log-level", "info", "log level: debug, info, warn, error")
		ringSize   = flag.Int("decision-ring", 256, "capacity of the /debug/decisions ring buffer")

		cacheEntries = flag.Int("cache-entries", 65536, "decision-cache capacity in entries (0 disables the cache)")
		cacheShards  = flag.Int("cache-shards", 16, "decision-cache shard count (rounded up to a power of two)")
		cacheTTL     = flag.Duration("cache-ttl", 10*time.Minute, "decision-cache entry lifetime (0 = never expire)")

		batchWorkers = flag.Int("batch-workers", 0, "worker-pool size for /v1/select/batch (0 = GOMAXPROCS)")
		forestEval   = flag.String("forest-eval", selector.EvalCompiled, "forest evaluator: compiled (SoA fast path) or pointer (reference walk)")

		registryKeep   = flag.Int("registry-keep", 4, "model generations kept resident for promote/rollback")
		bundleWatch    = flag.Bool("bundle-watch", false, "poll the bundle file and hot-swap changed content automatically")
		watchInterval  = flag.Duration("bundle-watch-interval", 5*time.Second, "bundle watcher poll interval")
		shadowFraction = flag.Float64("shadow-fraction", 0.1, "fraction of live traffic mirrored to a staged candidate generation (0 disables shadow evaluation)")
		shadowWorkers  = flag.Int("shadow-workers", 2, "worker goroutines evaluating shadow samples")
		shadowQueue    = flag.Int("shadow-queue", 256, "shadow sample queue capacity (overflow is dropped, never blocks)")

		sloSelectP99    = flag.Duration("slo-select-p99", time.Millisecond, "latency SLO: 99% of selects must complete within this (0 disables latency burn tracking)")
		sloAvailability = flag.Float64("slo-availability", 0.999, "availability SLO: required select success fraction in (0,1) (0 disables availability burn tracking)")

		driftWindow   = flag.Int("drift-window", modelhealth.DefaultWindow, "decisions per feature-drift PSI window")
		driftAlertPSI = flag.Float64("drift-alert-psi", modelhealth.DefaultAlertPSI, "PSI at or above which a feature's drift status is ALERT (warn at 40% of this)")
		marginWarn    = flag.Float64("margin-warn", modelhealth.DefaultMarginWarn, "vote margin below which a decision counts as low-confidence")
		flightrecSize = flag.Int("flightrec-size", modelhealth.DefaultFlightRecSize, "anomaly flight-recorder capacity in records")

		feedbackDir         = flag.String("feedback-dir", "", "directory for the /v1/feedback JSONL store (empty disables the feedback and retraining surfaces)")
		retrainInterval     = flag.Duration("retrain-interval", 0, "period of timer-driven retrain cycles (0 disables the timer)")
		retrainMinRecords   = flag.Int("retrain-min-records", retrain.DefaultMinRecords, "fewest resident feedback records worth retraining on")
		retrainDriftWindows = flag.Int("retrain-drift-windows", 0, "completed drift windows at ALERT that trigger a retrain cycle (0 disables the drift trigger)")
		promotePolicy       = flag.String("promote-policy", retrain.PolicyAuto, "what happens to a winning candidate: auto (promote) or manual (stage only)")

		controlPlane     = flag.String("controlplane", "", "control-plane base URL; set to run as a fleet replica that pulls bundles by manifest hash (empty = standalone server)")
		replicaID        = flag.String("replica-id", "", "unique replica id reported to the control plane (default: hostname)")
		advertise        = flag.String("advertise", "", "this replica's own base URL, reported in heartbeats for discovery")
		manifestPoll     = flag.Duration("manifest-poll", 2*time.Second, "control-plane manifest poll (and heartbeat) interval")
		stageSoak        = flag.Duration("stage-soak", 10*time.Second, "shadow-evaluation soak before a pulled candidate is promoted (negative = promote immediately)")
		minAgreement     = flag.Float64("min-agreement", registry.DefaultGate.MinAgreement, "shadow-agreement rate below which a soaking candidate is rejected")
		minShadowSamples = flag.Uint64("min-shadow-samples", registry.DefaultGate.MinSamples, "shadow samples required before the agreement gate judges a candidate")

		traceSampleRate = flag.Float64("trace-sample-rate", 0.01, "head-based trace sampling fraction in [0,1] (0 disables tracing)")
		traceCapacity   = flag.Int("trace-capacity", obs.DefaultTraceCapacity, "sampled traces retained for /debug/traces")
		pprofFlag       = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		runtimeInterval = flag.Duration("runtime-metrics-interval", 10*time.Second, "period of the Go runtime stats collector (0 disables)")
		shutdownTimeout = flag.Duration("shutdown-timeout", 10*time.Second, "deadline for draining in-flight requests on SIGINT/SIGTERM")
	)
	flag.Parse()

	o := obs.New(os.Stderr, obs.ParseLevel(*logLevel))
	err := run(o, options{
		bundlePath:   *bundlePath,
		addr:         *addr,
		ringSize:     *ringSize,
		cacheEntries: *cacheEntries,
		cacheShards:  *cacheShards,
		cacheTTL:     *cacheTTL,
		batchWorkers: *batchWorkers,
		forestEval:   *forestEval,

		registryKeep:   *registryKeep,
		bundleWatch:    *bundleWatch,
		watchInterval:  *watchInterval,
		shadowFraction: *shadowFraction,
		shadowWorkers:  *shadowWorkers,
		shadowQueue:    *shadowQueue,

		sloSelectP99:    *sloSelectP99,
		sloAvailability: *sloAvailability,

		driftWindow:   *driftWindow,
		driftAlertPSI: *driftAlertPSI,
		marginWarn:    *marginWarn,
		flightrecSize: *flightrecSize,

		feedbackDir:         *feedbackDir,
		retrainInterval:     *retrainInterval,
		retrainMinRecords:   *retrainMinRecords,
		retrainDriftWindows: *retrainDriftWindows,
		promotePolicy:       *promotePolicy,

		controlPlane: *controlPlane,
		replicaID:    *replicaID,
		advertise:    *advertise,
		manifestPoll: *manifestPoll,
		stageSoak:    *stageSoak,
		soakGate:     registry.Gate{MinAgreement: *minAgreement, MinSamples: *minShadowSamples},

		traceSampleRate: *traceSampleRate,
		traceCapacity:   *traceCapacity,
		pprof:           *pprofFlag,
		runtimeInterval: *runtimeInterval,
		shutdownTimeout: *shutdownTimeout,
	})
	if err != nil {
		o.Logger.Error("fatal", "error", err.Error())
		os.Exit(1)
	}
}

func run(o *obs.Obs, opts options) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if !selector.ValidEvalMode(opts.forestEval) {
		return fmt.Errorf("unknown -forest-eval mode %q (want %q or %q)",
			opts.forestEval, selector.EvalCompiled, selector.EvalPointer)
	}

	o.Traces.SetCapacity(opts.traceCapacity)
	o.Traces.SetSampleRate(opts.traceSampleRate)
	if opts.traceSampleRate > 0 {
		o.Logger.Info("trace sampling enabled",
			"rate", opts.traceSampleRate, "capacity", opts.traceCapacity)
	}
	if opts.runtimeInterval > 0 {
		go obs.NewRuntimeCollector(o.Registry).Run(ctx, opts.runtimeInterval)
	}

	// Registry + shadow evaluation. The shadow is built first (the registry
	// feeds it staged candidates); its algorithm namer is wired after the
	// selector exists.
	shadow := registry.NewShadow(o, registry.ShadowConfig{
		Fraction:  opts.shadowFraction,
		Workers:   opts.shadowWorkers,
		QueueSize: opts.shadowQueue,
	})
	reg := registry.New(o, registry.Config{Keep: opts.registryKeep, Shadow: shadow})
	gen, err := reg.Load(opts.bundlePath)
	switch {
	case err == nil:
		if _, err := reg.Promote(gen.ID()); err != nil {
			return fmt.Errorf("promote initial bundle: %w", err)
		}
	case opts.controlPlane != "":
		// A fleet replica can boot without a local bundle: the agent pulls
		// the desired generation from the control plane and promotes it.
		o.Logger.Warn("no local bundle; waiting for the control plane",
			"path", opts.bundlePath, "error", err.Error())
	default:
		return fmt.Errorf("load bundle: %w", err)
	}

	var decisionCache *cache.Cache
	if opts.cacheEntries > 0 {
		decisionCache = cache.New(cache.Config{
			Shards:     opts.cacheShards,
			MaxEntries: opts.cacheEntries,
			TTL:        opts.cacheTTL,
		}, o.Registry)
		o.Logger.Info("decision cache enabled",
			"entries", opts.cacheEntries, "shards", opts.cacheShards, "ttl", opts.cacheTTL.String())
	} else {
		o.Logger.Info("decision cache disabled")
	}

	// SLO tracking: every Select feeds rolling 1m/5m/1h windows; burn rates
	// surface on /debug/slo and pmlmpi_slo_*.
	tracker := slo.New(o.Registry, slo.Objectives{
		SelectP99:    opts.sloSelectP99,
		Availability: opts.sloAvailability,
	})

	// Model-health observatory: every Select feeds drift sketches, margin
	// telemetry, per-generation scorecards, and the anomaly flight
	// recorder; surfaces on /debug/{drift,scorecards,flightrecorder} and
	// pmlmpi_drift_* / pmlmpi_margin_* / pmlmpi_flightrec_*.
	health := modelhealth.New(o.Registry, modelhealth.Config{
		Window:        opts.driftWindow,
		AlertPSI:      opts.driftAlertPSI,
		MarginWarn:    opts.marginWarn,
		FlightRecSize: opts.flightrecSize,
	})

	sel := selector.NewFromSource(reg, o, selector.Config{
		RingSize:     opts.ringSize,
		Cache:        decisionCache,
		BatchWorkers: opts.batchWorkers,
		ForestEval:   opts.forestEval,
		Shadow:       shadow,
		SLO:          tracker,
		Health:       health,
	})
	shadow.SetNamer(sel.AlgorithmName)
	shadow.SetHealthSink(health.RecordShadow)
	shadow.Start()

	if opts.bundleWatch {
		go replica.NewFileWatcher(reg, o, opts.bundlePath, opts.watchInterval).Run(ctx)
	}

	// Fleet membership: poll the control-plane manifest, pull-verify-stage
	// desired bundles, soak them against shadow evaluation, and heartbeat.
	role := "server"
	var agent *replica.Agent
	if opts.controlPlane != "" {
		role = "replica"
		id := opts.replicaID
		if id == "" {
			if host, err := os.Hostname(); err == nil {
				id = host
			} else {
				id = fmt.Sprintf("replica-%d", os.Getpid())
			}
		}
		agent, err = replica.NewAgent(o, replica.AgentConfig{
			ControlPlane: opts.controlPlane,
			ReplicaID:    id,
			Advertise:    opts.advertise,
			Registry:     reg,
			Shadow:       shadow,
			Health:       health,
			SLO:          tracker,
			PollInterval: opts.manifestPoll,
			StageSoak:    opts.stageSoak,
			Gate:         opts.soakGate,
		})
		if err != nil {
			return fmt.Errorf("replica agent: %w", err)
		}
		go agent.Run(ctx)
	}

	// Self-tuning loop: the feedback store ingests /v1/feedback into an
	// append-only JSONL log behind the oracle plausibility guard, and the
	// retrain controller turns accumulated records into judged candidate
	// generations on interval ticks or sustained drift ALERT.
	var (
		store *feedback.Store
		ctrl  *retrain.Controller
	)
	if opts.feedbackDir != "" {
		if !retrain.ValidPolicy(opts.promotePolicy) {
			return fmt.Errorf("unknown -promote-policy %q (want %s or %s)",
				opts.promotePolicy, retrain.PolicyAuto, retrain.PolicyManual)
		}
		store, err = feedback.NewStore(o.Registry, feedback.Config{Dir: opts.feedbackDir})
		if err != nil {
			return fmt.Errorf("open feedback store: %w", err)
		}
		defer store.Close()
		ctrl, err = retrain.New(o, retrain.Config{
			Interval:      opts.retrainInterval,
			MinRecords:    opts.retrainMinRecords,
			DriftWindows:  opts.retrainDriftWindows,
			PromotePolicy: opts.promotePolicy,
		}, retrain.Deps{Store: store, Registry: reg, Shadow: shadow, Health: health})
		if err != nil {
			return fmt.Errorf("retrain controller: %w", err)
		}
		ctrl.Start()
		o.Logger.Info("feedback loop enabled",
			"dir", opts.feedbackDir,
			"resident", store.Resident(),
			"retrain_interval", opts.retrainInterval.String(),
			"min_records", opts.retrainMinRecords,
			"drift_windows", opts.retrainDriftWindows,
			"promote_policy", opts.promotePolicy)
	}

	srv := &http.Server{
		Addr: opts.addr,
		Handler: admin.New(sel, o, admin.Config{
			Pprof:    opts.pprof,
			Registry: reg,
			Shadow:   shadow,
			SLO:      tracker,
			Health:   health,
			Feedback: store,
			Retrain:  ctrl,
			Role:     role,
			Desired: func() any {
				if agent == nil {
					return nil
				}
				return agent.Status()
			},
		}),
		ReadHeaderTimeout: 5 * time.Second,
	}

	errc := make(chan error, 1)
	go func() {
		var genID uint64
		var collectives []string
		if g := reg.ActiveGeneration(); g != nil {
			genID = g.ID()
			collectives = g.Bundle().CollectiveNames()
		}
		o.Logger.Info("serving",
			"addr", opts.addr,
			"role", role,
			"version", buildinfo.Resolve(),
			"generation", genID,
			"forest_eval", opts.forestEval,
			"collectives", collectives)
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown: restore default signal handling first (a second
	// SIGINT kills the process immediately), drain in-flight HTTP with a
	// deadline, then stop the shadow workers — the watcher and runtime
	// collector already exit with ctx.
	stop()
	o.Logger.Info("shutting down", "timeout", opts.shutdownTimeout.String())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), opts.shutdownTimeout)
	defer cancel()
	shutdownErr := srv.Shutdown(shutdownCtx)
	if ctrl != nil {
		ctrl.Stop() // before the shadow: a judging cycle may be waiting on it
	}
	shadow.Stop()
	// Last chance to see what the anomaly flight recorder caught: once the
	// process exits the in-memory ring is gone, so dump it to the log.
	if records := health.Flight().Dump(); len(records) > 0 {
		if buf, err := json.Marshal(records); err == nil {
			o.Logger.Info("flight recorder dump",
				"records", len(records), "capacity", health.Flight().Capacity(), "dump", string(buf))
		}
	}
	o.Logger.Info("shutdown complete")
	return shutdownErr
}
