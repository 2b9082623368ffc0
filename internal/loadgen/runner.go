package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"polygraph/internal/collect"
	"polygraph/internal/fleet"
	"polygraph/internal/obs"
)

// Options configures one harness run.
type Options struct {
	// Scenario scripts the run; required.
	Scenario *Scenario
	// Pool is the pre-generated request stream; required (build with
	// BuildPool against the deployed model's features).
	Pool *Pool
	// BaseURL is the target server root, e.g. "http://127.0.0.1:8080".
	// Ignored when Fleet is set.
	BaseURL string
	// Fleet, when set, routes every request through the balancer instead
	// of BaseURL: each send picks a healthy replica, reports the outcome
	// (ejecting on transport failure), and transparently retries on
	// another replica when the picked one was down. The cross-check then
	// generalizes to client-vs-sum-of-replicas: per-replica stat and
	// metric deltas are summed before reconciliation and reported
	// individually in CrossCheck.Replicas.
	Fleet *fleet.Balancer
	// Hook injects callbacks at deterministic points of the run — the
	// fleet drill uses Midpoint to kill a replica mid-phase.
	Hook *PhaseHook
	// Client overrides the HTTP client; nil builds one sized for the
	// scenario's peak concurrency.
	Client *http.Client
	// TCPAddr, when set, drives the framed TCP listener instead of the
	// HTTP endpoints: workers claim pool indices in blocks of TCPBatch
	// and pipeline each block through one TCPClient.SubmitBatch, which
	// exercises the server-side frame coalescer. The pool must be all
	// binary (json_mix 0, invalid_mix 0) so every entry carries a
	// decoded Payload. BaseURL stays required for the /metrics
	// cross-check (the HTTP server the listener is attached to) unless
	// SkipCrossCheck is set.
	TCPAddr string
	// TCPBatch is the frames-per-SubmitBatch block size in TCP mode
	// (0 = 64).
	TCPBatch int
	// SkipCrossCheck disables the /metrics reconciliation (needed when
	// other traffic shares the target).
	SkipCrossCheck bool
	// ExpectAudit extends the cross-check with the audit-ledger
	// invariant: every scored decision is either durably recorded or
	// counted as sampled/dropped, so the polygraph_audit_records_total +
	// polygraph_audit_dropped_total delta must equal the server's ingest
	// delta. Set it only when the harness itself enabled the ledger on
	// the target (a server without one legitimately reports zeros).
	ExpectAudit bool
}

// PhaseHook injects caller code at deterministic points of a run.
type PhaseHook struct {
	// Start fires synchronously as each phase begins.
	Start func(phase string)
	// Midpoint fires exactly once per fixed-count phase, when half of
	// its requests have been drawn from the sequence counter (it never
	// fires for duration-bounded phases). The fleet drill hangs the
	// replica kill here so the failure lands at the same request index
	// every run.
	Midpoint func(phase string)
}

// PhaseLedger is the deterministic per-phase slice of the ledger.
type PhaseLedger struct {
	Name    string `json:"name"`
	Sent    int64  `json:"sent"`
	OK      int64  `json:"ok"`
	Flagged int64  `json:"flagged"`
}

// Ledger is the client-side record of what a run sent and how the server
// answered. Against a deterministic server, a fixed-seed, count-bounded
// scenario reproduces this struct exactly — it deliberately excludes
// anything wall-clock-dependent (latency, throughput), so CI can diff the
// ledgers of two runs byte for byte.
type Ledger struct {
	Scenario string `json:"scenario"`
	Seed     uint64 `json:"seed"`
	Sent     int64  `json:"sent"`
	// StreamDigest is the FNV-1a 64 hash of all sent bodies in sequence
	// order (see Pool.StreamDigest).
	StreamDigest string `json:"stream_digest"`
	// ByStatus counts responses by HTTP status code (keys are decimal
	// strings so the JSON form is stable and diffable).
	ByStatus map[string]int64 `json:"by_status"`
	// Flagged counts 2xx decisions the model flagged.
	Flagged int64 `json:"flagged"`
	// Timeouts and ConnErrors taxonomize transport-level failures
	// (normally zero; any non-zero value already fails the CI gate).
	Timeouts   int64 `json:"timeouts"`
	ConnErrors int64 `json:"conn_errors"`
	// AuditRecords and AuditDropped are the server audit-ledger counter
	// deltas over the run, captured only when the harness enabled
	// auditing (Options.ExpectAudit). They are run-level totals, not
	// per-phase: the recorded count is floor(benign/N) + flagged, which
	// is deterministic for a fixed-seed run regardless of request
	// interleaving — per-phase membership would not be.
	AuditRecords int64         `json:"audit_records,omitempty"`
	AuditDropped int64         `json:"audit_dropped,omitempty"`
	Phases       []PhaseLedger `json:"phases"`
}

// Errors counts every response that was not a 2xx plus every transport
// failure — the smoke gate's "zero non-2xx" assertion.
func (l *Ledger) Errors() int64 {
	n := l.Timeouts + l.ConnErrors
	for code, c := range l.ByStatus {
		if !strings.HasPrefix(code, "2") {
			n += c
		}
	}
	return n
}

// PhaseResult is the full (wall-clock-aware) outcome of one phase.
type PhaseResult struct {
	Name        string           `json:"name"`
	Sent        int64            `json:"sent"`
	OK          int64            `json:"ok"`
	Flagged     int64            `json:"flagged"`
	ByStatus    map[string]int64 `json:"by_status,omitempty"`
	Timeouts    int64            `json:"timeouts,omitempty"`
	ConnErrors  int64            `json:"conn_errors,omitempty"`
	Elapsed     time.Duration    `json:"elapsed_ns"`
	AchievedRPS float64          `json:"achieved_rps"`
	// Latency holds per-endpoint histogram summaries.
	Latency map[string]Quantiles `json:"latency"`
	// Truncated marks a phase cut short by the scenario budget.
	Truncated bool `json:"truncated,omitempty"`
}

// ReplicaDelta is one replica's contribution to a fleet run's counters.
type ReplicaDelta struct {
	Name          string `json:"name"`
	ReceivedDelta int64  `json:"received_delta"`
	FlaggedDelta  int64  `json:"flagged_delta"`
	RejectedDelta int64  `json:"rejected_delta"`
}

// CrossCheck reconciles the client-side ledger against the counters of
// the server's /metrics exposition — the "do the two sides of the wire
// agree" audit. Against a fleet, the server-side deltas are
// the sums over every replica (including killed ones, whose counters
// the harness reads in-process), and Replicas itemizes the split.
type CrossCheck struct {
	OK bool `json:"ok"`
	// Details lists every mismatch in human terms (empty when OK).
	Details []string `json:"details,omitempty"`

	ClientOK            int64 `json:"client_ok"`
	ServerReceivedDelta int64 `json:"server_received_delta"`
	ClientErrors        int64 `json:"client_errors"`
	ServerRejectedDelta int64 `json:"server_rejected_delta"`
	ClientFlagged       int64 `json:"client_flagged"`
	ServerFlaggedDelta  int64 `json:"server_flagged_delta"`
	// Replicas itemizes the per-replica deltas behind the sums above
	// (fleet runs only).
	Replicas []ReplicaDelta `json:"replicas,omitempty"`
	// Retries counts requests transparently re-routed to another replica
	// after a transport failure. Retries live here, not in the Ledger:
	// they depend on failure timing, and the Ledger must stay
	// byte-identical across runs.
	Retries int64 `json:"retries,omitempty"`
	// AuditRecordsDelta and AuditDroppedDelta are the audit-ledger
	// counter deltas over the run; with Options.ExpectAudit their sum
	// must equal ServerReceivedDelta (every scored decision recorded or
	// sampled out).
	AuditRecordsDelta int64 `json:"audit_records_delta,omitempty"`
	AuditDroppedDelta int64 `json:"audit_dropped_delta,omitempty"`
	// ServerP99Us maps endpoint → the upper bound (µs) of the bucket
	// holding the server-side p99, computed from the delta of the
	// polygraph_score_duration_microseconds exposition over the run.
	ServerP99Us map[string]float64 `json:"server_p99_us,omitempty"`
	// LatencyNotes carries informational latency-reconciliation detail
	// that does not flip OK (e.g. client-side queuing under burst
	// concurrency inflating the client p99 above the server's).
	LatencyNotes []string `json:"latency_notes,omitempty"`
}

// Report is the full outcome of a run.
type Report struct {
	Scenario string        `json:"scenario"`
	Seed     uint64        `json:"seed"`
	Ledger   Ledger        `json:"ledger"`
	Phases   []PhaseResult `json:"phases"`
	// Overall aggregates latency across all phases per endpoint.
	Overall map[string]Quantiles `json:"overall"`
	Elapsed time.Duration        `json:"elapsed_ns"`
	// BudgetExceeded marks a run aborted by the scenario's wall budget.
	BudgetExceeded bool        `json:"budget_exceeded,omitempty"`
	CrossCheck     *CrossCheck `json:"cross_check,omitempty"`
}

// P99 returns the worst per-endpoint p99 across the whole run — the
// number the CI gate compares against its ceiling.
func (r *Report) P99() time.Duration {
	var worst time.Duration
	for _, q := range r.Overall {
		if q.P99 > worst {
			worst = q.P99
		}
	}
	return worst
}

// phaseState accumulates one phase's counters; statuses live behind a
// mutex (cheap next to an HTTP round trip), latency in atomic histograms.
type phaseState struct {
	sent    atomic.Int64
	ok      atomic.Int64
	flagged atomic.Int64
	timeout atomic.Int64
	connErr atomic.Int64

	mu       sync.Mutex
	byStatus map[int]int64

	hists map[string]*Hist // keyed by endpoint path
}

func newPhaseState() *phaseState {
	return &phaseState{
		byStatus: map[int]int64{},
		hists: map[string]*Hist{
			EndpointBinary: new(Hist),
			EndpointJSON:   new(Hist),
		},
	}
}

func (ps *phaseState) countStatus(code int) {
	ps.mu.Lock()
	ps.byStatus[code]++
	ps.mu.Unlock()
}

// Run drives the scenario against the target and assembles the report.
func Run(ctx context.Context, opts Options) (*Report, error) {
	sc := opts.Scenario
	if sc == nil {
		return nil, fmt.Errorf("loadgen: Options.Scenario is required")
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if opts.Pool == nil || len(opts.Pool.Requests) == 0 {
		return nil, fmt.Errorf("loadgen: Options.Pool is required")
	}
	if opts.TCPAddr != "" {
		return runTCP(ctx, opts)
	}
	if opts.BaseURL == "" && opts.Fleet == nil {
		return nil, fmt.Errorf("loadgen: Options.BaseURL or Options.Fleet is required")
	}
	client := opts.Client
	if client == nil {
		client = newClient(peakConcurrency(sc))
	}

	if sc.Budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(sc.Budget))
		defer cancel()
	}

	// One metrics source per target: the single server, or every fleet
	// replica (whose in-process overrides keep a killed replica's
	// counters readable). Each is scraped once before and once after
	// the run.
	srcs := buildSources(opts, client)
	pres := make([]scrape, len(srcs))
	if !opts.SkipCrossCheck {
		for i, s := range srcs {
			pres[i].text, pres[i].err = s.exposition(ctx)
		}
	}

	report := &Report{
		Scenario: sc.Name,
		Seed:     sc.Seed,
		Ledger: Ledger{
			Scenario: sc.Name,
			Seed:     sc.Seed,
			ByStatus: map[string]int64{},
		},
	}
	overall := map[string]*Hist{
		EndpointBinary: new(Hist),
		EndpointJSON:   new(Hist),
	}

	start := time.Now()
	var seq int64 // global sequence index into the cycled pool
	var retries atomic.Int64
	for _, phase := range sc.Phases {
		if ctx.Err() != nil {
			report.BudgetExceeded = true
			break
		}
		if opts.Hook != nil && opts.Hook.Start != nil {
			opts.Hook.Start(phase.Name)
		}
		ps := newPhaseState()
		truncated := runPhase(ctx, phase, opts.Pool, client, &opts, &seq, ps, overall, &retries)

		pr := PhaseResult{
			Name:       phase.Name,
			Sent:       ps.sent.Load(),
			OK:         ps.ok.Load(),
			Flagged:    ps.flagged.Load(),
			Timeouts:   ps.timeout.Load(),
			ConnErrors: ps.connErr.Load(),
			ByStatus:   map[string]int64{},
			Latency:    map[string]Quantiles{},
			Truncated:  truncated,
		}
		elapsed := time.Since(start)
		for code, c := range ps.byStatus {
			key := strconv.Itoa(code)
			pr.ByStatus[key] = c
			report.Ledger.ByStatus[key] += c
		}
		for path, h := range ps.hists {
			if h.Count() > 0 {
				pr.Latency[path] = h.Summary()
			}
		}
		// Phase elapsed is measured inside runPhase via its own clock;
		// recompute here as the delta of the run clock for simplicity.
		pr.Elapsed = elapsed - sumElapsed(report.Phases)
		if pr.Elapsed > 0 {
			pr.AchievedRPS = float64(pr.Sent) / pr.Elapsed.Seconds()
		}
		report.Phases = append(report.Phases, pr)
		report.Ledger.Sent += pr.Sent
		report.Ledger.Flagged += pr.Flagged
		report.Ledger.Timeouts += pr.Timeouts
		report.Ledger.ConnErrors += pr.ConnErrors
		report.Ledger.Phases = append(report.Ledger.Phases, PhaseLedger{
			Name:    phase.Name,
			Sent:    pr.Sent,
			OK:      pr.OK,
			Flagged: pr.Flagged,
		})
		if truncated {
			report.BudgetExceeded = true
		}
	}
	report.Elapsed = time.Since(start)
	report.Ledger.StreamDigest = opts.Pool.StreamDigest(report.Ledger.Sent)
	report.Overall = map[string]Quantiles{}
	for path, h := range overall {
		if h.Count() > 0 {
			report.Overall[path] = h.Summary()
		}
	}

	if !opts.SkipCrossCheck {
		// The cross-check runs on a background-derived context so a budget
		// expiry mid-run doesn't block the audit of what did complete.
		cctx := ctx
		if ctx.Err() != nil {
			var cancel context.CancelFunc
			cctx, cancel = context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
		}
		posts := make([]scrape, len(srcs))
		for i, s := range srcs {
			posts[i].text, posts[i].err = s.exposition(cctx)
		}
		report.CrossCheck = crossCheck(srcs, pres, posts, &report.Ledger, retries.Load())
		reconcileLatency(pres, posts, report)
		if opts.ExpectAudit {
			reconcileAudit(pres, posts, report)
		}
	}
	return report, nil
}

// metricsSource is one reconciliation target: a way to read a server's
// /metrics exposition.
type metricsSource struct {
	name       string
	exposition func(context.Context) (string, error)
}

// scrape is one source's exposition at a checkpoint, or why it could
// not be read.
type scrape struct {
	text string
	err  error
}

func buildSources(opts Options, client *http.Client) []metricsSource {
	if opts.Fleet != nil {
		members := opts.Fleet.Members()
		fc := opts.Fleet.Client()
		out := make([]metricsSource, 0, len(members))
		for _, m := range members {
			m := m
			out = append(out, metricsSource{
				name: m.Name,
				exposition: func(ctx context.Context) (string, error) {
					return m.FetchMetrics(ctx, fc)
				},
			})
		}
		return out
	}
	return []metricsSource{{
		name: "server",
		exposition: func(ctx context.Context) (string, error) {
			return fetchExposition(ctx, client, opts.BaseURL)
		},
	}}
}

// Audit-ledger counter families exported by internal/collect; the
// harness reconciles their deltas against the ingest delta.
const (
	auditRecordsFamily = "polygraph_audit_records_total"
	auditDroppedFamily = "polygraph_audit_dropped_total"
)

// reconcileAudit enforces the audit accounting invariant on targets
// whose ledgers this harness enabled: recorded + dropped must equal the
// number of decisions the servers scored — no decision silently escapes
// a ledger. Against a fleet the deltas are summed over every replica.
// The deltas also land in the run ledger (run-level totals stay
// deterministic for a fixed seed; see Ledger.AuditRecords).
func reconcileAudit(pres, posts []scrape, report *Report) {
	cc := report.CrossCheck
	if cc == nil {
		return
	}
	var records, dropped float64
	for i := range pres {
		preRecords, _ := obs.ParseMetric(pres[i].text, auditRecordsFamily)
		preDropped, _ := obs.ParseMetric(pres[i].text, auditDroppedFamily)
		postRecords, err := obs.ParseMetric(posts[i].text, auditRecordsFamily)
		if err != nil {
			cc.Details = append(cc.Details, fmt.Sprintf("scrape %s: %v", auditRecordsFamily, err))
			cc.OK = false
			return
		}
		postDropped, err := obs.ParseMetric(posts[i].text, auditDroppedFamily)
		if err != nil {
			cc.Details = append(cc.Details, fmt.Sprintf("scrape %s: %v", auditDroppedFamily, err))
			cc.OK = false
			return
		}
		records += postRecords - preRecords
		dropped += postDropped - preDropped
	}
	cc.AuditRecordsDelta = int64(records)
	cc.AuditDroppedDelta = int64(dropped)
	report.Ledger.AuditRecords = cc.AuditRecordsDelta
	report.Ledger.AuditDropped = cc.AuditDroppedDelta
	if sum := cc.AuditRecordsDelta + cc.AuditDroppedDelta; sum != cc.ServerReceivedDelta {
		cc.Details = append(cc.Details, fmt.Sprintf(
			"audit ledger accounted for %d decisions (%d recorded + %d dropped) but server scored %d",
			sum, cc.AuditRecordsDelta, cc.AuditDroppedDelta, cc.ServerReceivedDelta))
		cc.OK = false
	}
	if cc.AuditRecordsDelta == 0 && cc.ServerReceivedDelta > 0 {
		cc.Details = append(cc.Details,
			"audit expected but polygraph_audit_records_total did not move")
		cc.OK = false
	}
}

func sumElapsed(phases []PhaseResult) time.Duration {
	var d time.Duration
	for _, p := range phases {
		d += p.Elapsed
	}
	return d
}

func peakConcurrency(sc *Scenario) int {
	peak := 1
	for _, p := range sc.Phases {
		if p.Concurrency > peak {
			peak = p.Concurrency
		}
	}
	return peak
}

func newClient(concurrency int) *http.Client {
	tr := &http.Transport{
		MaxIdleConns:        concurrency * 2,
		MaxIdleConnsPerHost: concurrency * 2,
		IdleConnTimeout:     30 * time.Second,
	}
	return &http.Client{Transport: tr, Timeout: 10 * time.Second}
}

// runPhase executes one phase's workers. Workers draw global sequence
// indices from a shared atomic counter, so the body sent for index i is
// deterministic regardless of which worker sends it or when. Returns
// whether the phase was truncated by the context (budget).
func runPhase(ctx context.Context, phase Phase, pool *Pool, client *http.Client, opts *Options, seq *int64, ps *phaseState, overall map[string]*Hist, retries *atomic.Int64) bool {
	workers := phase.Concurrency
	if workers <= 0 {
		workers = 1
	}
	phaseStartSeq := atomic.LoadInt64(seq)
	phaseStart := time.Now()
	var truncated atomic.Bool
	var midpointFired atomic.Bool

	// stop decides, per drawn index, whether the phase is over.
	stop := func(i int64) bool {
		if ctx.Err() != nil {
			truncated.Store(true)
			return true
		}
		if phase.Requests > 0 {
			return i-phaseStartSeq >= int64(phase.Requests)
		}
		return time.Since(phaseStart) >= time.Duration(phase.Duration)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := atomic.AddInt64(seq, 1) - 1
				if stop(i) {
					// Return the unused index so the ledger's sent count
					// equals the number of requests actually issued.
					atomic.AddInt64(seq, -1)
					return
				}
				// The midpoint hook fires on the worker that draws the
				// halfway index, so the injected event (the fleet drill's
				// replica kill) lands at the same request index every run.
				if opts.Hook != nil && opts.Hook.Midpoint != nil && phase.Requests > 0 &&
					i-phaseStartSeq == int64(phase.Requests/2) &&
					midpointFired.CompareAndSwap(false, true) {
					opts.Hook.Midpoint(phase.Name)
				}
				if phase.RPS > 0 {
					due := phaseStart.Add(time.Duration(float64(i-phaseStartSeq) / phase.RPS * float64(time.Second)))
					if wait := time.Until(due); wait > 0 {
						select {
						case <-time.After(wait):
						case <-ctx.Done():
							truncated.Store(true)
							atomic.AddInt64(seq, -1)
							return
						}
					}
				}
				sendOne(ctx, client, opts, pool.At(i), ps, overall, retries)
			}
		}()
	}
	wg.Wait()
	return truncated.Load()
}

// decisionFrame decodes only what the harness needs from a Decision.
type decisionFrame struct {
	Flagged bool `json:"flagged"`
}

// sendOne issues one pool request. Against a fleet, it routes through
// the balancer and transparently retries on another replica when the
// picked one was unreachable — the failure is reported (ejecting the
// dead replica) and the retry counted, but the ledger records only the
// final outcome, which is what keeps a kill drill at zero
// client-visible errors. Timeouts are never retried: a timed-out
// request may have been scored by the slow replica, and re-sending it
// would double-count it on another, breaking the
// client-vs-sum-of-replicas reconciliation.
func sendOne(ctx context.Context, client *http.Client, opts *Options, r *Request, ps *phaseState, overall map[string]*Hist, retries *atomic.Int64) {
	ps.sent.Add(1)
	attempts := 1
	if opts.Fleet != nil {
		attempts = len(opts.Fleet.Members()) + 1
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		baseURL := opts.BaseURL
		var picked fleet.Picked
		havePick := false
		if opts.Fleet != nil {
			p, err := opts.Fleet.Pick()
			if err != nil {
				lastErr = err
				break
			}
			picked, havePick = p, true
			baseURL = p.BaseURL()
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+r.Path, bytes.NewReader(r.Body))
		if err != nil {
			if havePick {
				opts.Fleet.Finish(picked, nil)
			}
			ps.connErr.Add(1)
			return
		}
		req.Header.Set("Content-Type", r.ContentType)
		start := time.Now()
		resp, err := client.Do(req)
		elapsed := time.Since(start)
		if err != nil {
			lastErr = err
			isTimeout := false
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				isTimeout = true
			}
			if havePick {
				opts.Fleet.Finish(picked, &collect.ClientError{Kind: collect.FailDown, Op: "submit", Err: err})
				if !isTimeout && attempt+1 < attempts {
					opts.Fleet.CountRetry()
					retries.Add(1)
					continue
				}
			}
			break
		}
		if havePick {
			opts.Fleet.Finish(picked, nil)
		}
		defer resp.Body.Close()
		ps.hists[r.Path].Record(elapsed)
		overall[r.Path].Record(elapsed)
		ps.countStatus(resp.StatusCode)
		if resp.StatusCode/100 == 2 {
			ps.ok.Add(1)
			var d decisionFrame
			if err := json.NewDecoder(resp.Body).Decode(&d); err == nil && d.Flagged {
				ps.flagged.Add(1)
			}
		}
		return
	}
	if ne, ok := lastErr.(net.Error); ok && ne.Timeout() {
		ps.timeout.Add(1)
	} else {
		ps.connErr.Add(1)
	}
}

// fetchExposition fetches a target's full /metrics exposition as text.
// Each source is scraped once per checkpoint and the text shared by
// every reconciliation pass, so a fleet of N replicas costs N scrapes,
// not N×passes.
func fetchExposition(ctx context.Context, client *http.Client, baseURL string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("loadgen: /metrics returned %d", resp.StatusCode)
	}
	var b strings.Builder
	if _, err := io.Copy(&b, resp.Body); err != nil {
		return "", err
	}
	return b.String(), nil
}

// scoreHistFamily is the serving-path latency histogram exported by
// internal/collect; the harness reconciles its own per-endpoint client
// histograms against it at bucket granularity. Parsing lives in
// internal/obs (obs.ParseMetric / obs.ParseHistogram / obs.QuantileBucket),
// shared with the support-bundle analyzers.
const scoreHistFamily = "polygraph_score_duration_microseconds"

// reconcileLatency compares the run's client-observed p99 per endpoint
// against the servers' own duration histograms (delta of cumulative
// buckets over the run, summed across every source — for a fleet, the
// merged histogram is exact because buckets are counters). Only the
// impossible direction fails the cross-check: the server-side handler
// latency exceeding what any client observed by more than one
// power-of-two bucket means the two histograms cannot be describing the
// same requests. The common benign skew — client p99 far above server
// p99 because of client-side queuing under burst concurrency — is
// recorded as a note.
func reconcileLatency(pres, posts []scrape, report *Report) {
	cc := report.CrossCheck
	if cc == nil {
		return
	}
	// Per-endpoint delta buckets summed over all sources.
	sum := map[string][]uint64{}
	exported := false
	for i := range pres {
		postHist := obs.ParseHistogram(posts[i].text, scoreHistFamily, "endpoint")
		if len(postHist) == 0 {
			continue
		}
		exported = true
		// A failed pre-run scrape parses as an empty map (the counter
		// reconciliation already fails on it).
		preHist := obs.ParseHistogram(pres[i].text, scoreHistFamily, "endpoint")
		for ep, post := range postHist {
			if len(post) != obs.NumBuckets {
				continue
			}
			acc := sum[ep]
			if acc == nil {
				acc = make([]uint64, len(post))
				sum[ep] = acc
			}
			pre := preHist[ep]
			for j, c := range post {
				d := c
				if j < len(pre) && pre[j] <= c {
					d = c - pre[j]
				}
				acc[j] += d
			}
		}
	}
	if !exported {
		cc.LatencyNotes = append(cc.LatencyNotes,
			"server does not export "+scoreHistFamily+"; latency reconciliation skipped")
		return
	}
	endpoints := make([]string, 0, len(report.Overall))
	for ep := range report.Overall {
		endpoints = append(endpoints, ep)
	}
	sort.Strings(endpoints)
	for _, ep := range endpoints {
		clientQ := report.Overall[ep]
		delta, ok := sum[ep]
		if !ok {
			cc.LatencyNotes = append(cc.LatencyNotes, fmt.Sprintf(
				"endpoint %s: no comparable server histogram series", ep))
			continue
		}
		serverIdx, total := obs.QuantileBucket(delta, 0.99)
		if serverIdx < 0 {
			cc.LatencyNotes = append(cc.LatencyNotes, fmt.Sprintf(
				"endpoint %s: server histogram did not move during the run", ep))
			continue
		}
		serverP99 := obs.BucketUpperMicros(serverIdx)
		if math.IsInf(serverP99, 1) {
			// Keep the JSON report marshalable: report the last finite
			// boundary instead of +Inf.
			serverP99 = obs.BucketUpperMicros(serverIdx - 1)
		}
		if cc.ServerP99Us == nil {
			cc.ServerP99Us = map[string]float64{}
		}
		cc.ServerP99Us[ep] = serverP99
		clientIdx := obs.BucketIndex(float64(clientQ.P99) / float64(time.Microsecond))
		switch {
		case serverIdx > clientIdx+1:
			cc.Details = append(cc.Details, fmt.Sprintf(
				"endpoint %s: server p99 bucket %d (≤%gµs over %d requests) exceeds client p99 bucket %d (%v) by more than one bucket",
				ep, serverIdx, serverP99, total, clientIdx, clientQ.P99))
			cc.OK = false
		case clientIdx > serverIdx+1:
			cc.LatencyNotes = append(cc.LatencyNotes, fmt.Sprintf(
				"endpoint %s: client p99 %v (bucket %d) above server p99 ≤%gµs (bucket %d) — client-side queuing",
				ep, clientQ.P99, clientIdx, serverP99, serverIdx))
		default:
			cc.LatencyNotes = append(cc.LatencyNotes, fmt.Sprintf(
				"endpoint %s: client p99 %v and server p99 ≤%gµs agree within one bucket",
				ep, clientQ.P99, serverP99))
		}
	}
}

// HTTP ingest counter families exported by internal/collect; the
// cross-check reconciles their deltas against the client ledger.
const (
	receivedFamily = "polygraph_collections_total"
	flaggedFamily  = "polygraph_flagged_total"
	rejectedFamily = "polygraph_rejected_total"
)

// httpCounters are the ingest counters of one exposition.
type httpCounters struct {
	received, flagged, rejected float64
}

// parseHTTPCounters reads the ingest counters from a scrape. A failed
// scrape or a missing family is an error, never a zero.
func parseHTTPCounters(sc scrape) (httpCounters, error) {
	var c httpCounters
	if sc.err != nil {
		return c, sc.err
	}
	ex := obs.ParseExpositionString(sc.text)
	var err error
	if c.received, err = ex.Value(receivedFamily); err != nil {
		return c, err
	}
	if c.flagged, err = ex.Value(flaggedFamily); err != nil {
		return c, err
	}
	if !ex.Has(rejectedFamily) {
		return c, fmt.Errorf("obs: metric %s not found", rejectedFamily)
	}
	c.rejected = ex.Sum(rejectedFamily) // summed over every reason
	return c, nil
}

// crossCheck reconciles the client ledger against the server-side
// counters. It compares deltas (post − pre), so a live daemon with
// prior traffic still reconciles as long as nothing else hits it during
// the run. With multiple sources (a fleet), each replica's delta is
// computed individually, itemized in Replicas, and the reconciliation
// runs against the sums — the client-vs-sum-of-replicas audit: no
// request may be double-scored (a retry landing twice) or lost (a
// "2xx" the fleet never counted).
func crossCheck(srcs []metricsSource, pres, posts []scrape, ledger *Ledger, retries int64) *CrossCheck {
	cc := &CrossCheck{Retries: retries}
	var pre, post httpCounters // summed over sources
	for i, s := range srcs {
		a, err := parseHTTPCounters(pres[i])
		if err != nil {
			cc.Details = append(cc.Details, fmt.Sprintf("%s: pre-run /metrics: %v", s.name, err))
			return cc
		}
		b, err := parseHTTPCounters(posts[i])
		if err != nil {
			cc.Details = append(cc.Details, fmt.Sprintf("%s: post-run /metrics: %v", s.name, err))
			return cc
		}
		if len(srcs) > 1 {
			cc.Replicas = append(cc.Replicas, ReplicaDelta{
				Name:          s.name,
				ReceivedDelta: int64(b.received - a.received),
				FlaggedDelta:  int64(b.flagged - a.flagged),
				RejectedDelta: int64(b.rejected - a.rejected),
			})
		}
		pre.received += a.received
		pre.flagged += a.flagged
		pre.rejected += a.rejected
		post.received += b.received
		post.flagged += b.flagged
		post.rejected += b.rejected
	}

	cc.ClientOK = ledger.ByStatus["200"]
	cc.ServerReceivedDelta = int64(post.received - pre.received)
	cc.ClientFlagged = ledger.Flagged
	cc.ServerFlaggedDelta = int64(post.flagged - pre.flagged)
	cc.ServerRejectedDelta = int64(post.rejected - pre.rejected)
	for code, c := range ledger.ByStatus {
		if !strings.HasPrefix(code, "2") {
			cc.ClientErrors += c
		}
	}

	if cc.ClientOK != cc.ServerReceivedDelta {
		cc.Details = append(cc.Details, fmt.Sprintf(
			"client saw %d 2xx but server %s moved by %d", cc.ClientOK, receivedFamily, cc.ServerReceivedDelta))
	}
	if cc.ClientFlagged != cc.ServerFlaggedDelta {
		cc.Details = append(cc.Details, fmt.Sprintf(
			"client decoded %d flagged decisions but server %s moved by %d", cc.ClientFlagged, flaggedFamily, cc.ServerFlaggedDelta))
	}
	// Rejected reconciles only when every client-side error was a
	// server-side reject (429s from a rate limiter and transport errors
	// are not counted by the server).
	if ledger.Timeouts == 0 && ledger.ConnErrors == 0 && ledger.ByStatus["429"] == 0 &&
		cc.ClientErrors != cc.ServerRejectedDelta {
		cc.Details = append(cc.Details, fmt.Sprintf(
			"client saw %d error responses but server %s moved by %d", cc.ClientErrors, rejectedFamily, cc.ServerRejectedDelta))
	}
	cc.OK = len(cc.Details) == 0
	return cc
}

// FormatReport renders the human-readable per-phase table.
func FormatReport(r *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s (seed %d): %d requests in %v",
		r.Scenario, r.Seed, r.Ledger.Sent, r.Elapsed.Round(time.Millisecond))
	if r.BudgetExceeded {
		b.WriteString("  [BUDGET EXCEEDED]")
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-10s %8s %8s %8s %9s  %-16s %9s %9s %9s %9s\n",
		"phase", "sent", "ok", "flagged", "rps", "endpoint", "p50", "p95", "p99", "max")
	for _, p := range r.Phases {
		first := true
		paths := make([]string, 0, len(p.Latency))
		for path := range p.Latency {
			paths = append(paths, path)
		}
		sort.Strings(paths)
		for _, path := range paths {
			q := p.Latency[path]
			name, sent, ok, flagged, rps := "", "", "", "", ""
			if first {
				name = p.Name
				sent = strconv.FormatInt(p.Sent, 10)
				ok = strconv.FormatInt(p.OK, 10)
				flagged = strconv.FormatInt(p.Flagged, 10)
				rps = strconv.FormatFloat(p.AchievedRPS, 'f', 0, 64)
				first = false
			}
			fmt.Fprintf(&b, "%-10s %8s %8s %8s %9s  %-16s %9s %9s %9s %9s\n",
				name, sent, ok, flagged, rps, path,
				fmtDur(q.P50), fmtDur(q.P95), fmtDur(q.P99), fmtDur(q.Max))
		}
		if first { // phase recorded no latency (all transport errors)
			fmt.Fprintf(&b, "%-10s %8d %8d %8d %9.0f  (no responses)\n",
				p.Name, p.Sent, p.OK, p.Flagged, p.AchievedRPS)
		}
	}
	fmt.Fprintf(&b, "errors: %d (timeouts %d, conn %d)  stream digest: %s\n",
		r.Ledger.Errors(), r.Ledger.Timeouts, r.Ledger.ConnErrors, r.Ledger.StreamDigest)
	if cc := r.CrossCheck; cc != nil {
		if cc.OK {
			fmt.Fprintf(&b, "cross-check: OK (server ingest delta %d == client 2xx %d, flagged %d)\n",
				cc.ServerReceivedDelta, cc.ClientOK, cc.ServerFlaggedDelta)
		} else {
			b.WriteString("cross-check: FAILED\n")
			for _, d := range cc.Details {
				fmt.Fprintf(&b, "  - %s\n", d)
			}
		}
		if len(cc.Replicas) > 0 {
			for _, rd := range cc.Replicas {
				fmt.Fprintf(&b, "  replica %-8s received %6d  flagged %6d  rejected %6d\n",
					rd.Name, rd.ReceivedDelta, rd.FlaggedDelta, rd.RejectedDelta)
			}
			fmt.Fprintf(&b, "  fleet retries: %d (rerouted after transport failure; not client-visible)\n", cc.Retries)
		}
		for _, n := range cc.LatencyNotes {
			fmt.Fprintf(&b, "  latency: %s\n", n)
		}
		if cc.AuditRecordsDelta+cc.AuditDroppedDelta > 0 {
			fmt.Fprintf(&b, "  audit: %d decision(s) recorded, %d sampled out (ledger accounts for every scored decision)\n",
				cc.AuditRecordsDelta, cc.AuditDroppedDelta)
		}
	}
	return b.String()
}

func fmtDur(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%dµs", d.Microseconds())
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}
