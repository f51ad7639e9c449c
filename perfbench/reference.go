package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The reference server is a fixed net/http + encoding/json echo: it does
// the transport and JSON work of a /v1/select handler and none of the
// program's code. The benchmark runs it as a child process beside the
// stack and times it between the closed phase's slices; its rate tracks
// how fast this machine is at that moment, which on a small shared VM
// drifts by a quarter and more over minutes.

// referenceReply has the shape of a served decision.
type referenceReply struct {
	Time       time.Time  `json:"time"`
	RequestID  string     `json:"request_id"`
	Collective any        `json:"collective"`
	Features   any        `json:"features"`
	Algorithm  string     `json:"algorithm"`
	Class      int        `json:"class"`
	Probs      [5]float64 `json:"probs"`
	Votes      [5]int     `json:"votes"`
	Margin     float64    `json:"margin"`
	LatencyNS  int64      `json:"latency_ns"`
}

// serveReference runs the reference server until SIGTERM.
func serveReference(addr string) error {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("ok\n")) })
	mux.HandleFunc("/ref", func(w http.ResponseWriter, r *http.Request) {
		var req map[string]any
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		reply := referenceReply{Time: time.Now(), RequestID: r.Header.Get("X-Request-Id"), Collective: req["collective"],
			Features: req["features"], Algorithm: "pairwise", Class: 1, Probs: [5]float64{0.01, 0.94, 0.03, 0, 0.02},
			Votes: [5]int{1, 94, 3, 0, 2}, Margin: 0.91, LatencyNS: 1}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(reply) // a failed write is the client's problem
	})
	srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// reference is the running reference server.
type reference struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
}

// startReference runs this binary as the reference server.
func startReference(ctx context.Context) (*reference, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(self, "-reference-server", addr)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start reference server: %w", err)
	}
	r := &reference{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // a stopped reference's exit status carries no information
		close(r.done)
	}()
	client := &http.Client{Timeout: time.Second}
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if resp, err := client.Get(r.base + "/healthz"); err == nil {
			resp.Body.Close()
			return r, nil
		}
		if ctx.Err() != nil {
			break
		}
	}
	r.stop()
	return nil, fmt.Errorf("reference server not up after 10s")
}

func (r *reference) stop() {
	_ = r.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-r.done:
	case <-time.After(5 * time.Second):
		_ = r.cmd.Process.Kill()
		<-r.done
	}
}

// window times n echo calls of the given bodies from all callers, closed
// loop, and returns the call rate and the median call latency.
func (r *reference) window(ctx context.Context, callers []*caller, bodies [][]byte, n int) (float64, time.Duration, error) {
	var next atomic.Int64
	lat := make([][]time.Duration, len(callers))
	errs := make([]error, len(callers))
	start := time.Now()
	var wg sync.WaitGroup
	for w, c := range callers {
		wg.Add(1)
		go func(w int, c *caller) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				status, _, d, err := c.post(ctx, r.base+"/ref", bodies[i%len(bodies)])
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("reference server: HTTP %d", status)
				}
				if err != nil {
					errs[w] = err
					return
				}
				lat[w] = append(lat[w], d)
			}
		}(w, c)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []time.Duration
	for w := range lat {
		if errs[w] != nil {
			return 0, 0, errs[w]
		}
		all = append(all, lat[w]...)
	}
	return float64(n) / wall.Seconds(), quantile(all, 0.5), nil
}
