// Command loadgen is the deterministic load/soak harness for the serving
// path. It synthesizes a PCG-seeded mix of honest and fraud-browser
// sessions, drives a collect server through scripted scenario phases
// (ramp / steady / burst), and reports per-endpoint latency quantiles,
// achieved throughput, an error taxonomy, and a client-vs-server
// cross-check of the ingest counters.
//
// Usage:
//
//	loadgen -short                          # built-in smoke scenario, in-process server
//	loadgen -scenario soak.json             # scripted scenario, in-process server
//	loadgen -addr http://127.0.0.1:8080     # drive a live polygraphd
//	loadgen -short -fleet 3                 # 3 in-process replicas behind the balancer
//	loadgen -short -fleet 3 -fleet-kill     # same, draining one replica mid-steady
//	loadgen -tcp -scenario tcp-bench.json   # framed TCP mode through the coalescer
//	loadgen -tcp -min-rps 4000              # same, gating on sustained throughput
//
// With no -addr, loadgen trains a model in-process (fixed dataset seed,
// -train-sessions) and serves it on a loopback listener, so a fixed-seed
// run is fully reproducible: two runs produce an identical request
// stream and an identical ledger (-ledger writes it as JSON for
// byte-compare). CI runs `loadgen -short` twice, diffs the ledgers, and
// gates on -fail-on-errors plus the -max-p99 ceiling.
//
// With -fleet N, the same trained model is distributed hash-verified to
// N warming replicas (internal/serving) and every request routes through
// the health-checked balancer (internal/fleet). The cross-check then
// reconciles the client ledger against the sum of all replicas' counters
// — and -fleet-kill proves the availability story by draining one
// replica at the exact midpoint of the steady phase, which must cost
// zero client-visible errors.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"polygraph/internal/audit"
	"polygraph/internal/benchjson"
	"polygraph/internal/bundle"
	"polygraph/internal/collect"
	"polygraph/internal/core"
	"polygraph/internal/dataset"
	"polygraph/internal/fingerprint"
	"polygraph/internal/fleet"
	"polygraph/internal/loadgen"
	"polygraph/internal/obs"
	"polygraph/internal/serving"
	"polygraph/internal/slo"
	"polygraph/internal/ua"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the harness and returns the process exit code (0 ok,
// 1 assertion failure, 2 usage/setup error).
func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scenarioPath  = fs.String("scenario", "", "scenario file (JSON); empty uses a built-in scenario")
		short         = fs.Bool("short", false, "use the built-in short deterministic smoke scenario")
		seed          = fs.Uint64("seed", 1, "scenario seed (drives the whole request stream)")
		addr          = fs.String("addr", "", "base URL of a live server (empty = in-process server)")
		trainSessions = fs.Int("train-sessions", 12000, "training-set size for the in-process model")
		fraudMix      = fs.Float64("fraud-mix", -1, "override the scenario's fraud-browser mix (-1 keeps it)")
		invalidMix    = fs.Float64("invalid-mix", -1, "override the scenario's malformed-payload mix (-1 keeps it)")
		maxP99        = fs.Duration("max-p99", 0, "fail when any endpoint's overall p99 exceeds this (0 = off)")
		failOnErrors  = fs.Bool("fail-on-errors", false, "fail on any non-2xx response or transport error")
		ledgerPath    = fs.String("ledger", "", "write the deterministic run ledger (JSON) to this path")
		benchOut      = fs.String("benchjson", "", "merge serve/* entries into this BENCH_<date>.json (created if absent)")
		noCrossCheck  = fs.Bool("no-crosscheck", false, "skip the /metrics reconciliation")
		metricsOut    = fs.String("metrics-out", "", "dump the target's /metrics exposition to this path after the run")
		auditDir      = fs.String("audit-dir", "", "enable the decision audit ledger on the in-process server, writing to this directory")
		auditSample   = fs.Int("audit-sample", 1, "record every Nth benign decision in the audit ledger (flagged always recorded)")
		modelOut      = fs.String("model-out", "", "save the in-process model to this file (for auditq replay)")
		fleetN        = fs.Int("fleet", 0, "run N in-process replicas behind the health-checked balancer (0 = single server)")
		fleetKill     = fs.Bool("fleet-kill", false, "drain one replica at the midpoint of the steady phase (requires -fleet)")
		tcpMode       = fs.Bool("tcp", false, "drive the framed TCP listener (frame coalescer) instead of the HTTP endpoints")
		tcpBatch      = fs.Int("tcp-batch", 64, "frames pipelined per SubmitBatch block in -tcp mode")
		minRPS        = fs.Float64("min-rps", 0, "fail when overall achieved requests-per-second falls below this floor (0 = off)")
		bundleOut     = fs.String("bundle-out", "", "capture a support bundle from the target into this tar.gz after the run")
		sloSpecPath   = fs.String("slo-spec", "", "SLO spec JSON attached to the in-process target(s) (empty = the built-in spec)")
		faultSlow     = fs.Duration("fault-slow", 0, "SLO fault drill: delay every score on the in-process server by this much (single HTTP server only)")
		version       = fs.Bool("version", false, "print build info and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, obs.Version("loadgen"))
		return 0
	}
	if *fleetN > 0 && *addr != "" {
		fmt.Fprintln(stderr, "loadgen: -fleet runs in-process replicas and cannot combine with -addr")
		return 2
	}
	if *fleetKill && *fleetN < 2 {
		fmt.Fprintln(stderr, "loadgen: -fleet-kill needs -fleet of at least 2 (a 1-replica fleet cannot survive a kill)")
		return 2
	}
	if *fleetN > 0 && *auditDir != "" && *auditSample != 1 {
		// With N>1 replicas, which replica scores a given benign decision
		// depends on routing, so every-Nth sampling is not deterministic
		// across runs; only -audit-sample 1 keeps the audit totals exact.
		fmt.Fprintln(stderr, "loadgen: fleet auditing requires -audit-sample 1 (benign sampling is routing-dependent)")
		return 2
	}
	if *tcpMode && *addr != "" {
		fmt.Fprintln(stderr, "loadgen: -tcp stands up the in-process TCP listener and cannot combine with -addr")
		return 2
	}
	if *tcpMode && *fleetN > 0 {
		fmt.Fprintln(stderr, "loadgen: -tcp does not route through a fleet")
		return 2
	}
	if *faultSlow > 0 && (*addr != "" || *fleetN > 0 || *tcpMode) {
		// The delay seam lives in the HTTP score path of the in-process
		// collect server; the other rigs have no knob to turn.
		fmt.Fprintln(stderr, "loadgen: -fault-slow drills the single in-process HTTP server (no -addr, -fleet, or -tcp)")
		return 2
	}
	if *sloSpecPath != "" && *addr != "" {
		fmt.Fprintln(stderr, "loadgen: -slo-spec attaches to the in-process target; a live -addr server configures its own")
		return 2
	}
	if *tcpMode && *auditDir != "" && *auditSample != 1 {
		// Coalesced batches audit their frames from concurrent connection
		// goroutines, so the every-Nth benign sampling counter is not
		// deterministic across runs; only -audit-sample 1 keeps the audit
		// totals exact.
		fmt.Fprintln(stderr, "loadgen: TCP auditing requires -audit-sample 1 (benign sampling is interleaving-dependent)")
		return 2
	}

	sc, err := buildScenario(*scenarioPath, *short, *seed)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *fraudMix >= 0 {
		sc.FraudMix = *fraudMix
	}
	if *invalidMix >= 0 {
		sc.InvalidMix = *invalidMix
	}
	if *tcpMode {
		if sc.InvalidMix > 0 {
			fmt.Fprintln(stderr, "loadgen: -tcp drives the binary frame codec only; set -invalid-mix 0 (corrupted bodies have no decoded payload to pipeline)")
			return 2
		}
		// The JSON/binary coin flip still burns one PCG draw per pool
		// entry, so zeroing the mix changes only the encoding — the
		// session stream (and therefore every verdict) is identical to
		// the same scenario driven over HTTP.
		sc.JSONMix = 0
	}
	if err := sc.Validate(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	sloSpec := slo.DefaultSpec()
	if *sloSpecPath != "" {
		loaded, err := slo.LoadSpec(*sloSpecPath)
		if err != nil {
			fmt.Fprintf(stderr, "loadgen: %v\n", err)
			return 2
		}
		sloSpec = loaded
	}

	ctx := context.Background()
	baseURL := *addr
	if baseURL != "" && !strings.Contains(baseURL, "://") {
		baseURL = "http://" + baseURL
	}
	var model *core.Model
	var driftMon *obs.DriftMonitor
	var auditLedger *audit.Ledger
	var sloEng *slo.Engine
	var rig *fleetRig
	tcpAddr := ""
	if *fleetN > 0 {
		rig, err = startInProcessFleet(ctx, sc, *fleetN, *trainSessions, *auditDir, *auditSample, sloSpec, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "loadgen: in-process fleet: %v\n", err)
			return 2
		}
		defer rig.shutdown()
		model = rig.model
	} else if baseURL == "" {
		srvRig, err := startInProcess(sc, *trainSessions, *auditDir, *auditSample, *tcpMode, sloSpec, *faultSlow, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "loadgen: in-process server: %v\n", err)
			return 2
		}
		defer srvRig.shutdown()
		model, driftMon, auditLedger = srvRig.model, srvRig.drift, srvRig.audit
		sloEng = srvRig.slo
		baseURL, tcpAddr = srvRig.baseURL, srvRig.tcpAddr
	} else if *auditDir != "" || *modelOut != "" {
		fmt.Fprintln(stderr, "loadgen: -audit-dir and -model-out require the in-process server (no -addr)")
		return 2
	}
	if *modelOut != "" {
		if err := saveModel(model, *modelOut); err != nil {
			fmt.Fprintf(stderr, "loadgen: model-out: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "model: saved to %s\n", *modelOut)
	}

	features, err := targetFeatures(ctx, model, baseURL)
	if err != nil {
		fmt.Fprintf(stderr, "loadgen: %v\n", err)
		return 2
	}
	pool, err := loadgen.BuildPool(sc, features)
	if err != nil {
		fmt.Fprintf(stderr, "loadgen: %v\n", err)
		return 2
	}

	opts := loadgen.Options{
		Scenario:       sc,
		Pool:           pool,
		BaseURL:        baseURL,
		TCPAddr:        tcpAddr,
		TCPBatch:       *tcpBatch,
		SkipCrossCheck: *noCrossCheck,
		ExpectAudit:    auditLedger != nil,
	}
	if rig != nil {
		opts.Fleet = rig.balancer
		opts.ExpectAudit = *auditDir != ""
		if *fleetKill {
			opts.Hook = &loadgen.PhaseHook{Midpoint: func(phase string) {
				if phase != killPhase {
					return
				}
				victim := rig.replicas[len(rig.replicas)-1]
				fmt.Fprintf(stderr, "loadgen: fleet drill: draining replica %s mid-%s\n", victim.Name(), phase)
				// Out of rotation first, shutdown second: quiescing
				// before Drain is what keeps the client-vs-fleet
				// reconciliation exact (see fleet.Quiesce).
				qctx, qcancel := context.WithTimeout(ctx, 10*time.Second)
				if err := rig.balancer.Quiesce(qctx, victim.Name()); err != nil {
					fmt.Fprintf(stderr, "loadgen: fleet drill: %v\n", err)
				}
				qcancel()
				victim.Drain()
			}}
		}
	}
	report, err := loadgen.Run(ctx, opts)
	if err != nil {
		fmt.Fprintf(stderr, "loadgen: %v\n", err)
		return 2
	}
	// Seal the audit ledger before reporting so auditq can verify and
	// replay it the moment the process exits.
	if auditLedger != nil {
		if err := auditLedger.Close(); err != nil {
			fmt.Fprintf(stderr, "loadgen: close audit ledger: %v\n", err)
			return 2
		}
		c := auditLedger.Counters()
		fmt.Fprintf(stdout, "audit: %d decision(s) recorded (%d sampled out, %d bytes) in %s\n",
			c.Records, c.Dropped, c.Bytes, auditLedger.Dir())
	}
	fmt.Fprint(stdout, loadgen.FormatReport(report))
	if rig != nil {
		for _, ms := range rig.balancer.Snapshot() {
			fmt.Fprintf(stdout, "fleet: %-4s %-22s %-8s hash=%s\n", ms.Name, ms.BaseURL, ms.State, short12(ms.ModelHash))
		}
	}

	// Force a drift evaluation over the traffic just sent so the PSI
	// gauges are populated in the -metrics-out dump (the background
	// cadence is too slow for a short run).
	if driftMon != nil {
		if _, err := driftMon.Evaluate(); err != nil {
			fmt.Fprintf(stderr, "loadgen: drift evaluation: %v\n", err)
		}
	}
	// Advance every SLO engine one final deterministic tick over the
	// run's finished counters, so the exported gauges — and any
	// burn-rate alert a fault drill tripped — reflect the whole run in
	// the -metrics-out dump and the support bundle.
	if rig != nil {
		for _, r := range rig.replicas {
			if e := r.SLO(); e != nil {
				if err := e.TickNow(); err != nil {
					fmt.Fprintf(stderr, "loadgen: slo tick %s: %v\n", r.Name(), err)
				}
			}
		}
		if _, err := rig.rollup.Collect(ctx); err != nil {
			fmt.Fprintf(stderr, "loadgen: slo rollup: %v\n", err)
		}
		printSLO(stdout, rig.rollup.Engine().Status())
	} else if sloEng != nil {
		if err := sloEng.TickNow(); err != nil {
			fmt.Fprintf(stderr, "loadgen: slo tick: %v\n", err)
		}
		printSLO(stdout, sloEng.Status())
	}
	if *metricsOut != "" {
		if rig != nil {
			err = rig.dumpMetrics(*metricsOut)
		} else {
			err = dumpMetrics(ctx, baseURL, *metricsOut)
		}
		if err != nil {
			fmt.Fprintf(stderr, "loadgen: metrics-out: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "metrics: exposition written to %s\n", *metricsOut)
	}

	if *ledgerPath != "" {
		if err := writeLedger(*ledgerPath, report); err != nil {
			fmt.Fprintf(stderr, "loadgen: write ledger: %v\n", err)
			return 2
		}
	}
	if *benchOut != "" {
		family := "serve"
		if rig != nil {
			family = "serve-fleet"
		}
		if *tcpMode {
			family = "serve-tcp"
		}
		if err := emitBenchJSON(*benchOut, report, family); err != nil {
			fmt.Fprintf(stderr, "loadgen: benchjson: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "benchjson: %s/* entries merged into %s\n", family, *benchOut)
	}
	if *bundleOut != "" {
		if err := captureBundle(ctx, rig, baseURL, *bundleOut, *benchOut); err != nil {
			fmt.Fprintf(stderr, "loadgen: bundle-out: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "bundle: support bundle written to %s\n", *bundleOut)
	}

	return assess(report, *maxP99, *minRPS, *failOnErrors, stderr)
}

// assess applies the gate assertions and returns the exit code.
func assess(report *loadgen.Report, maxP99 time.Duration, minRPS float64, failOnErrors bool, stderr *os.File) int {
	code := 0
	if report.BudgetExceeded {
		fmt.Fprintln(stderr, "loadgen: FAIL: run exceeded its wall-clock budget")
		code = 1
	}
	if failOnErrors {
		if n := report.Ledger.Errors(); n != 0 {
			fmt.Fprintf(stderr, "loadgen: FAIL: %d error responses/transport failures (want 0)\n", n)
			code = 1
		}
	}
	if maxP99 > 0 {
		if p99 := report.P99(); p99 > maxP99 {
			fmt.Fprintf(stderr, "loadgen: FAIL: overall p99 %v exceeds ceiling %v\n", p99, maxP99)
			code = 1
		}
	}
	if minRPS > 0 && report.Elapsed > 0 {
		if rps := float64(report.Ledger.Sent) / report.Elapsed.Seconds(); rps < minRPS {
			fmt.Fprintf(stderr, "loadgen: FAIL: sustained %.0f requests/sec, below the -min-rps floor %.0f\n", rps, minRPS)
			code = 1
		}
	}
	if cc := report.CrossCheck; cc != nil && !cc.OK {
		fmt.Fprintln(stderr, "loadgen: FAIL: client ledger does not reconcile with server counters")
		code = 1
	}
	return code
}

func buildScenario(path string, short bool, seed uint64) (*loadgen.Scenario, error) {
	if path != "" {
		sc, err := loadgen.LoadScenario(path)
		if err != nil {
			return nil, err
		}
		if seed != 1 {
			sc.Seed = seed
		}
		return sc, nil
	}
	if short {
		return loadgen.ShortScenario(seed), nil
	}
	return loadgen.DefaultScenario(seed), nil
}

// trainModel builds the deterministic in-process model shared by the
// single-server and fleet paths: fixed dataset seed, the scenario's UA
// version ceiling, and the training vectors returned for drift
// baselining.
func trainModel(sc *loadgen.Scenario, sessions int, stderr *os.File) (*core.Model, [][]float64, error) {
	cfg := dataset.DefaultConfig()
	cfg.Sessions = sessions
	cfg.MaxVersion = sc.MaxVersion
	if cfg.MaxVersion == 0 {
		cfg.MaxVersion = 114
	}
	fmt.Fprintf(stderr, "loadgen: training in-process model on %d sessions...\n", sessions)
	traffic, err := dataset.Generate(cfg)
	if err != nil {
		return nil, nil, err
	}
	tc := core.DefaultTrainConfig()
	tc.Reference = core.ExtractorReference{Extractor: traffic.Extractor, OS: ua.Windows10}
	samples := traffic.Samples()
	model, _, err := core.Train(samples, tc)
	if err != nil {
		return nil, nil, err
	}
	baseline := make([][]float64, len(samples))
	for i := range samples {
		baseline[i] = samples[i].Vector
	}
	return model, baseline, nil
}

// serverRig is the single in-process server: the trained model behind a
// loopback HTTP listener, plus — when the run drives TCP mode — the
// framed TCP listener attached to the same server so its counters and
// batch-size histogram ride the shared /metrics exposition.
type serverRig struct {
	model    *core.Model
	drift    *obs.DriftMonitor
	audit    *audit.Ledger
	slo      *slo.Engine
	baseURL  string
	tcpAddr  string
	shutdown func()
}

// startInProcess trains a model deterministically and serves it on a
// loopback listener. The drift monitor is baselined on the training
// vectors so a post-run Evaluate exports real PSI values. With withTCP,
// a frame-coalescing TCP listener shares the model, store, tracer,
// drift monitor, and audit ledger with the HTTP server.
func startInProcess(sc *loadgen.Scenario, sessions int, auditDir string, auditSample int, withTCP bool, sloSpec *slo.Spec, faultSlow time.Duration, stderr *os.File) (*serverRig, error) {
	model, baseline, err := trainModel(sc, sessions, stderr)
	if err != nil {
		return nil, err
	}
	driftMon, err := obs.NewDriftMonitor(obs.DriftConfig{
		Features: fingerprint.Names(model.Features),
		Baseline: baseline,
		Seed:     sc.Seed,
		Logger:   obs.NewLogger(stderr, false),
	})
	if err != nil {
		return nil, err
	}
	var auditLedger *audit.Ledger
	if auditDir != "" {
		auditLedger, err = audit.Open(audit.Config{Dir: auditDir, SampleBenign: auditSample})
		if err != nil {
			return nil, err
		}
	}
	srv, err := collect.NewServer(collect.Config{Model: model, Drift: driftMon, Audit: auditLedger, ScoreDelay: faultSlow})
	if err != nil {
		return nil, err
	}
	// The engine self-scrapes the server's own exposition; loadgen ticks
	// it exactly once after the run so the windows — and the fault
	// drill's alert decision — are a deterministic function of the run's
	// lifetime counters, not of wall-clock timer phase.
	eng, err := slo.NewEngine(slo.Config{
		Spec:      sloSpec,
		IntervalS: 1,
		Scope:     "loadgen server",
		Logger:    obs.NewLogger(stderr, false),
		Source: func() *obs.Exposition {
			return obs.ParseExpositionString(srv.MetricsText())
		},
	})
	if err != nil {
		return nil, err
	}
	srv.SetSLO(eng)
	var tcpSrv *collect.TCPServer
	var tcpLn net.Listener
	tcpAddr := ""
	if withTCP {
		tcpSrv, err = collect.NewTCPServer(collect.Config{
			Model:  model,
			Store:  srv.Store(),
			Tracer: srv.Tracer(),
			Drift:  driftMon,
			Audit:  auditLedger,
		})
		if err != nil {
			return nil, err
		}
		tcpLn, err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		srv.AttachTCP(tcpSrv)
		go tcpSrv.Serve(tcpLn)
		tcpAddr = tcpLn.Addr().String()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		if tcpSrv != nil {
			tcpSrv.Close()
		}
		return nil, err
	}
	httpSrv := &http.Server{Handler: srv, ReadHeaderTimeout: 5 * time.Second}
	go httpSrv.Serve(ln)
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if tcpSrv != nil {
			tcpSrv.Close()
		}
		httpSrv.Shutdown(ctx)
		if auditLedger != nil {
			auditLedger.Close() // idempotent; run() closes earlier on the happy path
		}
	}
	return &serverRig{
		model:    model,
		drift:    driftMon,
		audit:    auditLedger,
		slo:      eng,
		baseURL:  "http://" + ln.Addr().String(),
		tcpAddr:  tcpAddr,
		shutdown: shutdown,
	}, nil
}

// killPhase is the scenario phase whose midpoint hosts the -fleet-kill
// drill. Every built-in scenario names its main fixed-count phase
// "steady", which pins the drain to the same request index every run.
const killPhase = "steady"

// fleetRig is the in-process fleet: N serving replicas, the balancer
// routing between them, and the background health loop.
type fleetRig struct {
	model    *core.Model
	replicas []*serving.Replica
	balancer *fleet.Balancer
	rollup   *fleet.SLORollup
	cancel   context.CancelFunc
}

// startInProcessFleet trains the model once and stands up n warming
// replicas on loopback listeners, then walks the real fleet admission
// path: pin the balancer to the trained model's hash, distribute the
// model through every replica's admin endpoint, and hash-verify each
// deployment before admission. A 200ms health loop keeps ejection and
// re-admission live for the kill drill. With auditDir set, each replica
// writes its own ledger under auditDir/r<i>.
func startInProcessFleet(ctx context.Context, sc *loadgen.Scenario, n, sessions int, auditDir string, auditSample int, sloSpec *slo.Spec, stderr *os.File) (*fleetRig, error) {
	model, _, err := trainModel(sc, sessions, stderr)
	if err != nil {
		return nil, err
	}
	hash, err := model.Hash()
	if err != nil {
		return nil, err
	}
	logger := obs.NewLogger(stderr, false).With("app", "loadgen")

	rig := &fleetRig{model: model}
	ok := false
	defer func() {
		if !ok {
			rig.shutdown()
		}
	}()
	members := make([]fleet.Member, 0, n)
	for i := 0; i < n; i++ {
		cfg := serving.Config{
			Name:        fmt.Sprintf("r%d", i),
			Addr:        "127.0.0.1:0",
			AuditSample: auditSample,
			Logger:      logger,
			// Self-snapshotting replicas: pprof/expvar on the serving
			// mux so -bundle-out can capture profiles in-process.
			Debug: true,
			// Per-replica burn-rate engines; loadgen ticks each one a
			// final time post-run so the 1s background cadence never
			// races the metrics dump.
			SLOSpec:     sloSpec,
			SLOInterval: time.Second,
		}
		if auditDir != "" {
			cfg.AuditDir = filepath.Join(auditDir, cfg.Name)
		}
		r, err := serving.New(ctx, cfg)
		if err != nil {
			return nil, err
		}
		rig.replicas = append(rig.replicas, r)
		if err := r.Start(); err != nil {
			return nil, err
		}
		members = append(members, r.Member())
	}

	b, err := fleet.NewBalancer(fleet.Config{Seed: sc.Seed, ExpectHash: hash, Logger: logger}, members...)
	if err != nil {
		return nil, err
	}
	rig.balancer = b
	// Fleet-level rollup: sum every replica's counters, evaluate once.
	// loadgen drives Collect explicitly after the run (no background
	// loop), keeping the fleet page a function of the run alone.
	rollup, err := fleet.NewSLORollup(b, sloSpec, 1, logger)
	if err != nil {
		return nil, err
	}
	b.AttachSLO(rollup)
	rig.rollup = rollup
	results, err := (&fleet.Controller{Logger: logger}).Distribute(ctx, b, model)
	if err != nil {
		return nil, err
	}
	for _, res := range results {
		if !res.Admitted {
			return nil, fmt.Errorf("replica %s refused: %v", res.Name, res.Error)
		}
		fmt.Fprintf(stderr, "loadgen: fleet: %s %s admitted hash=%s\n", res.Name, res.BaseURL, short12(res.Hash))
	}

	hctx, cancel := context.WithCancel(ctx)
	rig.cancel = cancel
	go b.RunHealth(hctx, 200*time.Millisecond)
	ok = true
	return rig, nil
}

func (rig *fleetRig) shutdown() {
	if rig.cancel != nil {
		rig.cancel()
	}
	for _, r := range rig.replicas {
		r.Close()
	}
}

// dumpMetrics writes replica r0's full exposition with the balancer's
// fleet families appended — one file carrying both the serving contract
// and the fleet contract for promlint.
func (rig *fleetRig) dumpMetrics(path string) error {
	var b strings.Builder
	b.WriteString(rig.replicas[0].MetricsExposition())
	rig.balancer.WriteMetrics(&b)
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// captureBundle snapshots the run's target into a support bundle: the
// whole fleet in-process (every replica — including a drained kill-drill
// victim — plus the balancer's own exposition), or the single server
// over loopback HTTP. The fresh benchjson trajectory rides along when
// the run emitted one. Collector errors (e.g. no pprof on the plain
// collect server) are recorded in the manifest, not fatal.
func captureBundle(ctx context.Context, rig *fleetRig, baseURL, path, benchOut string) error {
	opts := bundle.Options{
		Tool: obs.Version("loadgen").String(),
	}
	if benchOut != "" {
		opts.Files = []string{benchOut}
	}
	if rig != nil {
		for _, r := range rig.replicas {
			opts.Targets = append(opts.Targets, r.BundleTarget())
		}
		opts.FleetMetrics = rig.balancer.WriteMetrics
	} else {
		opts.Targets = []bundle.Target{{Name: "server", BaseURL: baseURL}}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := bundle.Capture(ctx, f, opts); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSLO summarizes the run's error-budget standing: one quiet line
// when everything is within budget, one loud line per firing objective
// otherwise (the same state slocheck gates on from the metrics dump).
func printSLO(w io.Writer, page slo.Page) {
	if !page.Alerting {
		fmt.Fprintf(w, "slo: %s: %d objective(s) within budget\n", page.Spec, len(page.Objectives))
		return
	}
	for _, o := range page.Objectives {
		if !o.Alerting {
			continue
		}
		fmt.Fprintf(w, "slo: ALERT %s: %s burning error budget (sli=%.5f target=%.5f fast=%v slow=%v)\n",
			page.Spec, o.Name, o.SLI, o.Target, o.FastBurn, o.SlowBurn)
	}
}

// short12 abbreviates a model hash for one-line fleet summaries.
func short12(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	if h == "" {
		return "-"
	}
	return h
}

// saveModel serializes the in-process model so `auditq replay` can pair
// it with the ledger the run just produced.
func saveModel(m *core.Model, path string) error {
	if m == nil {
		return fmt.Errorf("no in-process model to save")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// dumpMetrics writes the target's /metrics exposition to path, so CI
// can lint the serving metrics contract (cmd/promlint) after a run.
func dumpMetrics(ctx context.Context, baseURL, path string) error {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/metrics", nil)
	if err != nil {
		return err
	}
	resp, err := (&http.Client{}).Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/metrics returned %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o644)
}

// targetFeatures resolves the feature set the payloads must carry. The
// in-process path has the model; against a live server, the features are
// the standard Table 8 set every polygraphd deployment serves — the
// run's cross-check catches a width mismatch immediately (every request
// rejects).
func targetFeatures(ctx context.Context, model *core.Model, baseURL string) ([]fingerprint.Feature, error) {
	if model != nil {
		return model.Features, nil
	}
	// A live target: confirm it is reachable before hammering it.
	client := &http.Client{Timeout: 5 * time.Second}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("target %s unreachable: %w", baseURL, err)
	}
	resp.Body.Close()
	return fingerprint.Table8(), nil
}

// writeLedger writes the deterministic ledger as indented JSON; CI runs
// the same scenario twice and byte-compares the two files.
func writeLedger(path string, report *loadgen.Report) error {
	data, err := json.MarshalIndent(&report.Ledger, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// emitBenchJSON merges the run's <family>/* entries into the snapshot
// at path, regenerating only that family in place so training entries —
// and the other serving family (serve vs serve-fleet) — survive.
func emitBenchJSON(path string, report *loadgen.Report, family string) error {
	rep, err := benchjson.ReadFile(path)
	if os.IsNotExist(err) {
		rep = benchjson.New(0)
		err = nil
	}
	if err != nil {
		return err
	}
	rep.DropPrefix(family + "/")
	// HTTP endpoint keys carry a leading slash ("/v1/collect"); the TCP
	// label ("tcp") does not — normalize so entry names always read
	// family/phase/endpoint.
	epKey := func(ep string) string {
		if !strings.HasPrefix(ep, "/") {
			return "/" + ep
		}
		return ep
	}
	for _, p := range report.Phases {
		for ep, q := range p.Latency {
			rep.Add(family+"/"+p.Name+epKey(ep), float64(q.Mean.Nanoseconds()), map[string]float64{
				"p50-us":   float64(q.P50.Microseconds()),
				"p95-us":   float64(q.P95.Microseconds()),
				"p99-us":   float64(q.P99.Microseconds()),
				"max-us":   float64(q.Max.Microseconds()),
				"requests": float64(q.Count),
			})
		}
	}
	for ep, q := range report.Overall {
		rep.Add(family+"/overall"+epKey(ep), float64(q.Mean.Nanoseconds()), map[string]float64{
			"p50-us":   float64(q.P50.Microseconds()),
			"p95-us":   float64(q.P95.Microseconds()),
			"p99-us":   float64(q.P99.Microseconds()),
			"max-us":   float64(q.Max.Microseconds()),
			"requests": float64(q.Count),
		})
	}
	metrics := map[string]float64{
		"requests":    float64(report.Ledger.Sent),
		"ok":          float64(report.Ledger.ByStatus["200"]),
		"errors":      float64(report.Ledger.Errors()),
		"flagged":     float64(report.Ledger.Flagged),
		"elapsed-sec": report.Elapsed.Seconds(),
	}
	if report.Elapsed > 0 {
		metrics["requests-per-sec"] = float64(report.Ledger.Sent) / report.Elapsed.Seconds()
	}
	if cc := report.CrossCheck; cc != nil {
		metrics["retries"] = float64(cc.Retries)
	}
	rep.Add(family+"/run", float64(report.Elapsed.Nanoseconds()), metrics)
	return rep.WriteFile(path)
}
