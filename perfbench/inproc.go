package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"github.com/pml-mpi/pmlmpi/pkg/admin"
	"github.com/pml-mpi/pmlmpi/pkg/cache"
	"github.com/pml-mpi/pmlmpi/pkg/feedback"
	"github.com/pml-mpi/pmlmpi/pkg/gateway"
	"github.com/pml-mpi/pmlmpi/pkg/modelhealth"
	"github.com/pml-mpi/pmlmpi/pkg/obs"
	"github.com/pml-mpi/pmlmpi/pkg/registry"
	"github.com/pml-mpi/pmlmpi/pkg/selector"
	"github.com/pml-mpi/pmlmpi/pkg/slo"
)

// node is one serving stack built in this process from the program's
// packages, configured as cmd/pmlmpi-server configures itself with its
// default flags. The traced run serves it behind the benchmark's span
// wrappers. Two defaults are left out: the retrain controller (idle
// without -retrain-interval or -retrain-drift-windows) and the runtime
// stats collector (in one process it would sample the generator too).
type node struct {
	o       *obs.Obs
	sel     *selector.Selector
	shadow  *registry.Shadow
	store   *feedback.Store
	handler http.Handler
	logf    *os.File
	promote time.Duration // registry.Promote of the loaded bundle
}

// Flag defaults of cmd/pmlmpi-server that shape the serving path.
const (
	defaultRingSize     = 256
	defaultCacheShards  = 16
	defaultCacheTTL     = 10 * time.Minute
	defaultShadowFrac   = 0.1
	defaultShadowWork   = 2
	defaultShadowQueue  = 256
	defaultRegistryKeep = 4
	defaultSampleRate   = 0.01
	defaultSLOP99       = time.Millisecond
	defaultSLOAvail     = 0.999
)

// newNode builds a server stack over the bundle bytes; feedbackDir empty
// leaves the feedback store out, as the binary does.
func newNode(data []byte, logPath, feedbackDir string) (*node, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	o := obs.New(logf, obs.LevelInfo)
	o.Traces.SetCapacity(obs.DefaultTraceCapacity)
	o.Traces.SetSampleRate(defaultSampleRate)
	shadow := registry.NewShadow(o, registry.ShadowConfig{Fraction: defaultShadowFrac, Workers: defaultShadowWork, QueueSize: defaultShadowQueue})
	reg := registry.New(o, registry.Config{Keep: defaultRegistryKeep, Shadow: shadow})
	gen, err := reg.LoadData(data, bundlePath)
	if err != nil {
		logf.Close()
		return nil, err
	}
	start := time.Now()
	if _, err := reg.Promote(gen.ID()); err != nil {
		logf.Close()
		return nil, err
	}
	n := &node{o: o, shadow: shadow, logf: logf, promote: time.Since(start)}
	tracker := slo.New(o.Registry, slo.Objectives{SelectP99: defaultSLOP99, Availability: defaultSLOAvail})
	health := modelhealth.New(o.Registry, modelhealth.Config{
		Window:        modelhealth.DefaultWindow,
		AlertPSI:      modelhealth.DefaultAlertPSI,
		MarginWarn:    modelhealth.DefaultMarginWarn,
		FlightRecSize: modelhealth.DefaultFlightRecSize,
	})
	n.sel = selector.NewFromSource(reg, o, selector.Config{
		RingSize:   defaultRingSize,
		Cache:      cache.New(cache.Config{Shards: defaultCacheShards, MaxEntries: defaultCacheSize, TTL: defaultCacheTTL}, o.Registry),
		ForestEval: selector.EvalCompiled,
		Shadow:     shadow,
		SLO:        tracker,
		Health:     health,
	})
	shadow.SetNamer(n.sel.AlgorithmName)
	shadow.SetHealthSink(health.RecordShadow)
	shadow.Start()
	if feedbackDir != "" {
		if n.store, err = feedback.NewStore(o.Registry, feedback.Config{Dir: feedbackDir}); err != nil {
			n.close()
			return nil, err
		}
	}
	n.handler = admin.New(n.sel, o, admin.Config{Registry: reg, Shadow: shadow, SLO: tracker, Health: health, Feedback: n.store, Role: "server"})
	return n, nil
}

func (n *node) close() {
	n.shadow.Stop()
	if n.store != nil {
		_ = n.store.Close() // the feedback directory is discarded with the run
	}
	n.logf.Close()
}

// listener is one loopback HTTP server of the in-process stack.
type listener struct {
	srv  *http.Server
	base string
	done chan struct{}
}

// serve runs h on a fresh loopback port; conns counts accepted connections.
func serve(h http.Handler, conns *atomic.Int64) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{
		srv: &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second, ConnState: func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				conns.Add(1)
			}
		}},
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(l.done)
		if err := l.srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: in-process server:", err)
		}
	}()
	return l, nil
}

func (l *listener) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = l.srv.Shutdown(ctx) // on timeout the process exits soon anyway
	<-l.done
}

// inprocStack is the traced run's serving stack: one server, or a gateway
// over two replicas, each behind a tracedHandler that records into spans.
type inprocStack struct {
	nodes     []*node
	listeners []*listener
	base      string
	conns     atomic.Int64
	stopGW    context.CancelFunc
	gwDone    chan struct{}
}

func startInproc(ctx context.Context, data []byte, hash, runDir string, fleet, withFeedback bool, spans *spanLog) (*inprocStack, error) {
	s := &inprocStack{}
	ids := []string{"server"}
	if fleet {
		ids = []string{"r0", "r1"}
	}
	var specs []gateway.ReplicaSpec
	for _, id := range ids {
		fb := ""
		if withFeedback {
			fb = filepath.Join(runDir, id+"-feedback")
		}
		n, err := newNode(data, filepath.Join(runDir, id+".log"), fb)
		if err != nil {
			s.stop()
			return nil, err
		}
		s.nodes = append(s.nodes, n)
		l, err := serve(&tracedHandler{layer: "server", node: id, next: n.handler, spans: spans}, &s.conns)
		if err != nil {
			s.stop()
			return nil, err
		}
		s.listeners = append(s.listeners, l)
		specs = append(specs, gateway.ReplicaSpec{ID: id, URL: l.base})
		s.base = l.base
	}
	if fleet {
		logf, err := os.Create(filepath.Join(runDir, "gateway.log"))
		if err != nil {
			s.stop()
			return nil, err
		}
		defer logf.Close()
		tr := &tracedTransport{base: http.DefaultTransport.(*http.Transport).Clone(), spans: spans}
		gw, err := gateway.New(obs.New(logf, obs.LevelInfo), gateway.Config{
			Replicas:       specs,
			Quantum:        selector.DefaultCacheQuantum,
			MaxAttempts:    3,
			HealthInterval: 2 * time.Second,
			Client:         &http.Client{Timeout: 10 * time.Second, Transport: tr},
		})
		if err != nil {
			s.stop()
			return nil, err
		}
		gctx, cancel := context.WithCancel(ctx)
		s.stopGW, s.gwDone = cancel, make(chan struct{})
		go func() {
			defer close(s.gwDone)
			gw.Run(gctx)
		}()
		l, err := serve(&tracedHandler{layer: "gateway", next: gw, spans: spans}, &s.conns)
		if err != nil {
			s.stop()
			return nil, err
		}
		s.listeners = append(s.listeners, l)
		s.base = l.base
	}
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		ok, err := healthy(ctx, client, "in-process stack", s.base, hash, len(ids))
		if err != nil || ok {
			if err != nil {
				s.stop()
			}
			return s, err
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("in-process stack (%s) not healthy after 30s", strings.Join(ids, ","))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (s *inprocStack) stop() {
	for i := len(s.listeners) - 1; i >= 0; i-- {
		s.listeners[i].close()
	}
	if s.stopGW != nil {
		s.stopGW()
		<-s.gwDone
	}
	for _, n := range s.nodes {
		n.close()
	}
}
