package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one serving process the benchmark started.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  *os.File
	base string // http://127.0.0.1:port
	done chan struct{}
}

// stack is the set of serving processes of one workload; base is where
// the benchmark sends its traffic (the server, or the gateway).
type stack struct {
	procs   []*proc
	serving []*proc // processes that load the bundle
	base    string
}

// stackConfig says what to start and where.
type stackConfig struct {
	binDir      string
	root        string // working directory: the default -bundle path resolves from here
	runDir      string // logs and feedback directories
	fleet       bool
	feedback    bool
	bundleHash  string
	extraServer []string // flags added to every pmlmpi-server
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func startProc(cfg stackConfig, name, bin string, args ...string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(cfg.runDir, name+".log"))
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(filepath.Join(cfg.binDir, bin), append([]string{"-addr", addr}, args...)...)
	cmd.Dir = cfg.root
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, log: logf, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a stopped server carries no information
		logf.Close()
		close(p.done)
	}()
	return p, nil
}

// startStack launches the workload's processes with their default flags
// and returns once every one answers /healthz with the bundle loaded. The
// returned duration is the set-up time: first process start until then.
func startStack(ctx context.Context, cfg stackConfig) (*stack, time.Duration, error) {
	start := time.Now()
	s := &stack{}
	server := func(name string) (*proc, error) {
		args := append([]string(nil), cfg.extraServer...)
		if cfg.feedback {
			dir := filepath.Join(cfg.runDir, name+"-feedback")
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, err
			}
			args = append(args, "-feedback-dir", dir)
		}
		p, err := startProc(cfg, name, "pmlmpi-server", args...)
		if err == nil {
			s.procs = append(s.procs, p)
			s.serving = append(s.serving, p)
		}
		return p, err
	}
	if !cfg.fleet {
		p, err := server("server")
		if err != nil {
			return nil, 0, err
		}
		s.base = p.base
	} else {
		var specs []string
		for _, id := range []string{"r0", "r1"} {
			p, err := server(id)
			if err != nil {
				s.stop()
				return nil, 0, err
			}
			specs = append(specs, id+"="+p.base)
		}
		gw, err := startProc(cfg, "gateway", "pmlmpi-gateway", "-replicas", strings.Join(specs, ","))
		if err != nil {
			s.stop()
			return nil, 0, err
		}
		s.procs = append(s.procs, gw)
		s.base = gw.base
	}

	deadline := time.Now().Add(60 * time.Second)
	client := &http.Client{Timeout: time.Second}
	for _, p := range s.procs {
		for {
			ok, err := healthy(ctx, client, p.name, p.base, cfg.bundleHash, len(s.serving))
			if err != nil {
				s.stop()
				return nil, 0, err
			}
			if ok {
				break
			}
			select {
			case <-p.done:
				s.stop()
				return nil, 0, fmt.Errorf("%s exited during start-up; see %s", p.name, p.log.Name())
			case <-ctx.Done():
				s.stop()
				return nil, 0, ctx.Err()
			case <-time.After(5 * time.Millisecond):
			}
			if time.Now().After(deadline) {
				s.stop()
				return nil, 0, fmt.Errorf("%s not healthy after 60s", p.name)
			}
		}
	}
	return s, time.Since(start), nil
}

// healthy polls one /healthz. A server must report the bundle's generation
// hash, a gateway every replica healthy on that hash; a healthy process on
// another hash is an error, not a wait.
func healthy(ctx context.Context, c *http.Client, name, base, hash string, replicas int) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return false, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return false, nil // not listening yet
	}
	defer resp.Body.Close()
	var h struct {
		Status     string `json:"status"`
		Role       string `json:"role"`
		Generation *struct {
			Hash string `json:"hash"`
		} `json:"generation"`
		HealthyReplicas int `json:"healthy_replicas"`
		Replicas        []struct {
			ActiveHash string `json:"active_hash"`
		} `json:"replicas"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil || resp.StatusCode != http.StatusOK || h.Status != "ok" {
		return false, nil
	}
	if h.Role == "gateway" {
		if h.HealthyReplicas < replicas {
			return false, nil
		}
		for _, r := range h.Replicas {
			if r.ActiveHash == "" {
				return false, nil // not probed since the replica came up
			}
			if r.ActiveHash != hash {
				return false, fmt.Errorf("gateway reports a replica on hash %q, want the bundle's %s", r.ActiveHash, hash)
			}
		}
		return true, nil
	}
	if h.Generation == nil || h.Generation.Hash != hash {
		return false, fmt.Errorf("%s serves generation %+v, want the bundle's hash %s", name, h.Generation, hash)
	}
	return true, nil
}

// stop sends SIGTERM to every process and waits for each to exit, killing
// any that has not drained within 10 seconds.
func (s *stack) stop() {
	for _, p := range s.procs {
		_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	}
	for _, p := range s.procs {
		select {
		case <-p.done:
		case <-time.After(10 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.done
		}
	}
}

// peakRSSMB sums the peak resident set (VmHWM) of the serving processes,
// the gateway included.
func (s *stack) peakRSSMB() (float64, error) {
	var total float64
	for _, p := range s.procs {
		f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		found := false
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err != nil {
					f.Close()
					return 0, fmt.Errorf("parse VmHWM of %s: %w", p.name, err)
				}
				total += kb / 1024
				found = true
			}
		}
		f.Close()
		if !found {
			return 0, fmt.Errorf("no VmHWM for %s", p.name)
		}
	}
	return total, nil
}

// scrape sums every sample of each named family on the serving processes'
// /metrics, across label sets and processes.
func (s *stack) scrape(ctx context.Context, names ...string) (map[string]float64, error) {
	out := make(map[string]float64, len(names))
	for _, p := range s.serving {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.base+"/metrics", nil)
		if err != nil {
			return nil, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		for _, line := range bytes.Split(body, []byte("\n")) {
			if len(line) == 0 || line[0] == '#' {
				continue
			}
			fields := strings.Fields(string(line))
			if len(fields) < 2 {
				continue
			}
			family, _, _ := strings.Cut(fields[0], "{")
			for _, n := range names {
				if family == n {
					v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
					if err == nil {
						out[n] += v
					}
				}
			}
		}
	}
	return out, nil
}
