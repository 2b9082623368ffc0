package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"polygraph/internal/collect"
	"polygraph/internal/fingerprint"
	"polygraph/internal/obs"
	"polygraph/internal/serving"
	"polygraph/internal/slo"
)

// The server under test runs in a child process: this same binary,
// re-executed with the "serve" subcommand. It wires one replica exactly
// as cmd/polygraphd does with its default flags plus -train -sessions
// 40000, so the benchmark measures the production runtime rather than
// a hand-wired rig. Two additions exist only because polygraphd cannot
// provide them yet:
//
//   - -tcp attaches the framed TCP listener the way cmd/loadgen's rig
//     does (collect.NewTCPServer + Server.AttachTCP); polygraphd does
//     not start one.
//   - -traced opens a second HTTP listener whose handler times each
//     call into (*collect.Server).ServeHTTP and keys it by the
//     request's sequence header. The production listener stays
//     untouched, so untraced phases measure the daemon as shipped.

const (
	// trainSessions and serverSeed are polygraphd's -train defaults: the
	// oracle retrains the identical model from them.
	trainSessions = 40000
	serverSeed    = 2023
	seqHeader     = "X-Bench-Seq"
	spansPath     = "/bench/spans"
	readyPrefix   = "perfbench-ready "
)

// serveMain runs the child server until SIGTERM/SIGINT.
func serveMain(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	auditDir := fs.String("audit-dir", "", "audit ledger directory (empty = off)")
	auditSample := fs.Int("audit-sample", 1, "benign audit sampling (polygraphd -audit-sample)")
	withTCP := fs.Bool("tcp", false, "attach the framed TCP listener")
	traced := fs.Bool("traced", false, "open the handler-timing listener")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	logger := obs.NewLogger(os.Stderr, false).With("app", "polygraphd")

	// polygraphd's flag defaults, field for field.
	replica, err := serving.New(ctx, serving.Config{
		Name:           "polygraphd",
		Addr:           "127.0.0.1:0",
		Train:          true,
		Sessions:       trainSessions,
		ReloadTimeout:  5 * time.Minute,
		AuditDir:       *auditDir,
		AuditSample:    *auditSample,
		DriftInterval:  time.Minute,
		DriftReservoir: 512,
		TraceRingSize:  256,
		TraceSeed:      1,
		SlowRequest:    100 * time.Millisecond,
		SLOSpec:        slo.DefaultSpec(),
		SLOInterval:    10 * time.Second,
		Logger:         logger,
	})
	if err != nil {
		return err
	}
	if err := replica.Start(); err != nil {
		replica.Close()
		return err
	}
	defer replica.Close()
	srv := replica.Server()

	tcpAddr := "-"
	if *withTCP {
		// The replica's drift monitor is private, so the TCP listener
		// gets its own, configured as serving.Replica configures its:
		// Observe costs the same whatever the baseline.
		drift, err := obs.NewDriftMonitor(obs.DriftConfig{
			Features:  fingerprint.Names(srv.Model().Features),
			Reservoir: 512,
			Seed:      1,
			Logger:    logger,
		})
		if err != nil {
			return err
		}
		tcpSrv, err := collect.NewTCPServer(collect.Config{
			Model:  srv.Model(),
			Store:  srv.Store(),
			Tracer: srv.Tracer(),
			Drift:  drift,
		})
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv.AttachTCP(tcpSrv)
		go tcpSrv.Serve(ln)
		defer tcpSrv.Close()
		tcpAddr = ln.Addr().String()
	}

	tracedAddr := "-"
	if *traced {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		// Same timeouts as serving.Replica.Start.
		hs := &http.Server{
			Handler:           &spanHandler{srv: srv},
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       10 * time.Second,
			WriteTimeout:      30 * time.Second,
			IdleTimeout:       120 * time.Second,
		}
		go hs.Serve(ln)
		defer hs.Close()
		tracedAddr = ln.Addr().String()
	}

	fmt.Printf("%shttp=%s tcp=%s traced=%s\n", readyPrefix, replica.Addr(), tcpAddr, tracedAddr)
	select {
	case <-ctx.Done():
		return nil
	case err := <-replica.Done():
		return err
	}
}

// span is one timed call into the collect handler.
type span struct {
	Seq      int    `json:"seq"`
	Nanos    int64  `json:"ns"`
	Endpoint string `json:"endpoint"`
}

// spanHandler is the traced listener's handler: a span around
// (*collect.Server).ServeHTTP, kept in memory until the parent fetches
// them from spansPath.
type spanHandler struct {
	srv   *collect.Server
	mu    sync.Mutex
	spans []span
}

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == spansPath {
		h.mu.Lock()
		out := h.spans
		h.spans = nil
		h.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(out)
		return
	}
	seq, err := strconv.Atoi(r.Header.Get(seqHeader))
	start := time.Now()
	h.srv.ServeHTTP(w, r)
	elapsed := time.Since(start)
	if err == nil {
		h.mu.Lock()
		h.spans = append(h.spans, span{Seq: seq, Nanos: elapsed.Nanoseconds(), Endpoint: r.URL.Path})
		h.mu.Unlock()
	}
}

// child is a running server process.
type child struct {
	cmd                         *exec.Cmd
	httpURL, tcpAddr, tracedURL string
	exited                      chan struct{}
}

// children tracks live server processes so every exit path of the
// benchmark, signals included, can stop them.
var children struct {
	mu  sync.Mutex
	set map[*child]bool
}

// launchChild starts the server and waits until /healthz answers 200
// with the model deployed. It returns the set-up time: from process
// launch to the first healthy answer. With pin set, the server runs on
// pin.srv while this process stays on pin.gen.
func launchChild(ctx context.Context, dir, stderrName string, pin *pinning, args ...string) (*child, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	errFile, err := os.Create(dir + "/" + stderrName)
	if err != nil {
		return nil, 0, err
	}
	defer errFile.Close()
	cmd := exec.Command(exe, append([]string{"serve"}, args...)...)
	cmd.Stderr = errFile
	// Pdeathsig kills the server if the benchmark dies without running
	// its own cleanup.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if pin != nil {
		err = startPinned(pin.srv, pin.gen, cmd.Start)
	} else {
		err = cmd.Start()
	}
	if cmd.Process == nil {
		return nil, 0, err
	}
	c := track(cmd)
	if err != nil {
		// Started, but this thread's CPU mask was not restored.
		c.stop()
		return nil, 0, err
	}

	ready := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, readyPrefix) {
				ready <- strings.TrimPrefix(line, readyPrefix)
				break
			}
		}
		io.Copy(io.Discard, stdout)
	}()
	fail := func(err error) (*child, float64, error) {
		c.stop()
		return nil, 0, fmt.Errorf("%w (server log: %s/%s)", err, dir, stderrName)
	}
	select {
	case line := <-ready:
		for _, field := range strings.Fields(line) {
			k, v, _ := strings.Cut(field, "=")
			switch {
			case v == "-":
			case k == "http":
				c.httpURL = "http://" + v
			case k == "tcp":
				c.tcpAddr = v
			case k == "traced":
				c.tracedURL = "http://" + v
			}
		}
	case <-c.exited:
		return fail(errors.New("server exited during set-up"))
	case <-ctx.Done():
		return fail(ctx.Err())
	case <-time.After(120 * time.Second):
		return fail(errors.New("server not ready after 120s"))
	}
	client := &http.Client{Timeout: 2 * time.Second}
	for {
		resp, err := client.Get(c.httpURL + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, time.Since(start).Seconds(), nil
			}
		}
		select {
		case <-c.exited:
			return fail(errors.New("server exited during set-up"))
		case <-ctx.Done():
			return fail(ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// track registers a started process so every exit path stops it.
func track(cmd *exec.Cmd) *child {
	c := &child{cmd: cmd, exited: make(chan struct{})}
	children.mu.Lock()
	if children.set == nil {
		children.set = map[*child]bool{}
	}
	children.set[c] = true
	children.mu.Unlock()
	go func() {
		cmd.Wait()
		close(c.exited)
	}()
	return c
}

// pid returns the server's process id.
func (c *child) pid() int { return c.cmd.Process.Pid }

// stop asks the server to shut down, kills it if it has not exited
// within five seconds, and waits for it.
func (c *child) stop() {
	children.mu.Lock()
	delete(children.set, c)
	children.mu.Unlock()
	c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.exited:
	case <-time.After(5 * time.Second):
		c.cmd.Process.Kill()
		<-c.exited
	}
}

// stopAllChildren is the signal-path cleanup.
func stopAllChildren() {
	children.mu.Lock()
	live := make([]*child, 0, len(children.set))
	for c := range children.set {
		live = append(live, c)
	}
	children.mu.Unlock()
	for _, c := range live {
		c.stop()
	}
}

// procCPU returns the user+system CPU time a process has used, from
// /proc/<pid>/stat (clock ticks of 10 ms).
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ")".
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return time.Duration(utime+stime) * 10 * time.Millisecond, nil
}

// peakRSSMiB returns a process's peak resident set (VmHWM) in MiB.
func peakRSSMiB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
