// Command perfbench is the repository's benchmark. It runs one named
// workload against the serving stack or the training stack, checks
// every output against an oracle, and prints each metric by name, unit
// and sample count, then one JSON result line:
//
//	perfbench --workload login-http --seed 1 --seconds 20 --trace 0
//	perfbench repeat -n 5 --workload replay-tcp --seconds 20 --trace 0
//
// Workloads: login-http, replay-tcp, retrain, drift-http (see
// README.md). --trace 0 prints the end-to-end metrics; --trace 1 runs
// the traced variant and prints the per-layer metrics. The repeat
// subcommand runs a workload N times with seeds seed..seed+N-1 and
// prints each metric's median, quartiles and spread.
//
// The exit code is 0 only when every check passed: the deployed model
// matches the oracle's, every decision matches the oracle, and the
// client's counts reconcile with the server's /metrics deltas.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// options is one run's configuration.
type options struct {
	w           workload
	seed        uint64
	seconds     float64
	trace       bool
	runDir      string
	auditSample int
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			if err := serveMain(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench serve:", err)
				os.Exit(1)
			}
			return
		case "spin":
			if err := spinMain(); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench spin:", err)
				os.Exit(1)
			}
			return
		case "repeat":
			os.Exit(repeatMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: login-http, replay-tcp, retrain, drift-http")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for run scratch (ledgers, server logs)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	// The generator shares the box with the server: at most two
	// processors, as many as the box has.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	runDir, err := func() (string, error) {
		if err := os.MkdirAll(*workdir, 0o755); err != nil {
			return "", err
		}
		dir, err := os.MkdirTemp(*workdir, "run-"+w.name+"-")
		if err != nil {
			return "", err
		}
		return filepath.Abs(dir)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	cleanup := func() {
		stopAllChildren()
		os.RemoveAll(runDir)
	}
	defer cleanup()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// A closed stdout must fail the write, not kill the process before
	// the server is stopped and the run directory removed.
	signal.Ignore(syscall.SIGPIPE)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		s := <-sig
		cancel()
		cleanup()
		fmt.Fprintln(os.Stderr, "perfbench: stopped by", s)
		os.Exit(1)
	}()

	o := &options{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, runDir: runDir, auditSample: w.auditSample}
	rep := newReport(w.name, o.trace)
	fmt.Printf("# perfbench %s seed=%d seconds=%g trace=%d\n", w.name, o.seed, o.seconds, *trace)
	if err := w.run(ctx, o, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if o.trace {
		rep.offPath()
	}
	if err := rep.write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !rep.correct() {
		fmt.Fprintln(os.Stderr, "perfbench: output checks failed:", strings.Join(rep.problems, "; "))
		return 1
	}
	return 0
}
