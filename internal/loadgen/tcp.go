package loadgen

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"polygraph/internal/collect"
	"polygraph/internal/fingerprint"
	"polygraph/internal/obs"
)

// TCP mode drives the framed batch listener through the same
// deterministic machinery as the HTTP mode: workers claim global
// sequence indices in blocks of Options.TCPBatch and pipeline each
// block through one TCPClient.SubmitBatch call, so the server-side
// coalescer sees genuinely batched wire traffic. The ledger keeps its
// byte-identity contract — ok replies count as status "200", error
// replies as "400", and the stream digest hashes the identical binary
// bodies the HTTP mode would have posted.

// EndpointTCPLabel keys TCP-mode latency histograms in reports. The
// recorded unit is one SubmitBatch round trip (a whole pipelined
// block), not one frame.
const EndpointTCPLabel = "tcp"

// TCP listener counter families exported by internal/collect when a
// listener is attached to the HTTP server; the TCP cross-check
// reconciles their deltas against the client ledger.
const (
	tcpScoredFamily    = "polygraph_tcp_scored_total"
	tcpFlaggedFamily   = "polygraph_tcp_flagged_total"
	tcpBadFramesFamily = "polygraph_tcp_bad_frames_total"
)

// defaultTCPBatch is the frames-per-SubmitBatch block when
// Options.TCPBatch is zero.
const defaultTCPBatch = 64

// tcpCounters holds the TCP counter values of one /metrics scrape.
type tcpCounters struct {
	scored    float64
	flagged   float64
	badFrames float64
	audit     [2]float64 // records, dropped
}

func newTCPPhaseState() *phaseState {
	return &phaseState{
		byStatus: map[int]int64{},
		hists:    map[string]*Hist{EndpointTCPLabel: new(Hist)},
	}
}

// runTCP is the TCP-mode twin of Run; Run dispatches here when
// Options.TCPAddr is set.
func runTCP(ctx context.Context, opts Options) (*Report, error) {
	sc := opts.Scenario
	if opts.Fleet != nil {
		return nil, fmt.Errorf("loadgen: TCP mode does not route through a fleet")
	}
	for i, r := range opts.Pool.Requests {
		if r.Payload == nil {
			return nil, fmt.Errorf(
				"loadgen: TCP mode needs an all-binary pool but entry %d has no payload (set json_mix and invalid_mix to 0)", i)
		}
	}
	if opts.BaseURL == "" && !opts.SkipCrossCheck {
		return nil, fmt.Errorf("loadgen: TCP mode needs Options.BaseURL for the /metrics cross-check (or SkipCrossCheck)")
	}
	batch := opts.TCPBatch
	if batch <= 0 {
		batch = defaultTCPBatch
	}

	if sc.Budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(sc.Budget))
		defer cancel()
	}

	client := opts.Client
	if client == nil {
		client = newClient(1) // scrapes only; frames ride raw TCP
	}
	var pre scrape
	if !opts.SkipCrossCheck {
		// Fail fast: a target without an attached listener would
		// otherwise take the whole run before the cross-check says so.
		pre.text, pre.err = fetchExposition(ctx, client, opts.BaseURL)
		if pre.err != nil {
			return nil, fmt.Errorf("loadgen: pre-run /metrics scrape: %w", pre.err)
		}
		if _, err := parseTCPCounters(pre, opts.ExpectAudit); err != nil {
			return nil, fmt.Errorf("loadgen: pre-run /metrics: %w (is the TCP listener attached to this server?)", err)
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
	overall := map[string]*Hist{EndpointTCPLabel: new(Hist)}

	start := time.Now()
	var seq int64
	for _, phase := range sc.Phases {
		if ctx.Err() != nil {
			report.BudgetExceeded = true
			break
		}
		if opts.Hook != nil && opts.Hook.Start != nil {
			opts.Hook.Start(phase.Name)
		}
		ps := newTCPPhaseState()
		truncated := runTCPPhase(ctx, phase, opts.Pool, opts.TCPAddr, batch, &seq, ps, overall)

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
		cctx := ctx
		if ctx.Err() != nil {
			var cancel context.CancelFunc
			cctx, cancel = context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
		}
		var post scrape
		post.text, post.err = fetchExposition(cctx, client, opts.BaseURL)
		report.CrossCheck = crossCheckTCP(pre, post, &report.Ledger, opts.ExpectAudit)
	}
	return report, nil
}

// runTCPPhase executes one phase's TCP workers. Workers claim the
// shared sequence counter in blocks of batch, so block membership —
// and therefore every reply — is a pure function of (scenario, seed)
// regardless of which worker sends which block. Each worker keeps one
// connection and redials after a transport failure; a failed block is
// counted (sent + per-frame transport errors) but never resent, which
// keeps client and server frame counts reconcilable.
func runTCPPhase(ctx context.Context, phase Phase, pool *Pool, addr string, batch int, seq *int64, ps *phaseState, overall map[string]*Hist) bool {
	workers := phase.Concurrency
	if workers <= 0 {
		workers = 1
	}
	phaseStartSeq := atomic.LoadInt64(seq)
	phaseStart := time.Now()
	var truncated atomic.Bool

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var client *collect.TCPClient
			defer func() {
				if client != nil {
					client.Close()
				}
			}()
			for {
				// Claim a block, shrinking or returning the claim at
				// the phase boundary. The arithmetic is all atomic adds,
				// so concurrent over-claims at the boundary cancel out.
				claimEnd := atomic.AddInt64(seq, int64(batch))
				blockStart := claimEnd - int64(batch)
				size := int64(batch)
				if ctx.Err() != nil {
					truncated.Store(true)
					atomic.AddInt64(seq, -size)
					return
				}
				if phase.Requests > 0 {
					remain := int64(phase.Requests) - (blockStart - phaseStartSeq)
					if remain <= 0 {
						atomic.AddInt64(seq, -size)
						return
					}
					if remain < size {
						atomic.AddInt64(seq, remain-size)
						size = remain
					}
				} else if time.Since(phaseStart) >= time.Duration(phase.Duration) {
					atomic.AddInt64(seq, -size)
					return
				}
				if phase.RPS > 0 {
					due := phaseStart.Add(time.Duration(float64(blockStart-phaseStartSeq) / phase.RPS * float64(time.Second)))
					if wait := time.Until(due); wait > 0 {
						select {
						case <-time.After(wait):
						case <-ctx.Done():
							truncated.Store(true)
							atomic.AddInt64(seq, -size)
							return
						}
					}
				}
				if client == nil {
					c, err := collect.DialTCP(addr, 0)
					if err != nil {
						ps.sent.Add(size)
						ps.connErr.Add(size)
						continue
					}
					client = c
				}
				if !sendTCPBlock(client, pool, blockStart, size, ps, overall) {
					client.Close()
					client = nil
				}
			}
		}()
	}
	wg.Wait()
	return truncated.Load()
}

// sendTCPBlock pipelines one claimed block through SubmitBatch and
// tallies the replies. It reports false when the connection failed and
// should be redialed.
func sendTCPBlock(client *collect.TCPClient, pool *Pool, start, size int64, ps *phaseState, overall map[string]*Hist) bool {
	payloads := make([]*fingerprint.Payload, size)
	for k := int64(0); k < size; k++ {
		payloads[k] = pool.At(start + k).Payload
	}
	ps.sent.Add(size)
	t0 := time.Now()
	decs, err := client.SubmitBatch(payloads)
	elapsed := time.Since(t0)
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			ps.timeout.Add(size)
		} else {
			ps.connErr.Add(size)
		}
		return false
	}
	// One histogram sample per pipelined block: the unit of latency in
	// TCP mode is the batch round trip.
	ps.hists[EndpointTCPLabel].Record(elapsed)
	overall[EndpointTCPLabel].Record(elapsed)
	for _, d := range decs {
		if d.Err {
			ps.countStatus(400)
			continue
		}
		ps.ok.Add(1)
		ps.countStatus(200)
		if d.Flagged {
			ps.flagged.Add(1)
		}
	}
	return true
}

// parseTCPCounters reads the TCP listener families (and optionally the
// audit families) from a scrape. A failed scrape or a missing family is
// an error, never a zero.
func parseTCPCounters(sc scrape, withAudit bool) (tcpCounters, error) {
	var p tcpCounters
	if sc.err != nil {
		return p, sc.err
	}
	ex := obs.ParseExpositionString(sc.text)
	var err error
	if p.scored, err = ex.Value(tcpScoredFamily); err != nil {
		return p, err
	}
	if p.flagged, err = ex.Value(tcpFlaggedFamily); err != nil {
		return p, err
	}
	if p.badFrames, err = ex.Value(tcpBadFramesFamily); err != nil {
		return p, err
	}
	if withAudit {
		if p.audit[0], err = ex.Value(auditRecordsFamily); err != nil {
			return p, err
		}
		if p.audit[1], err = ex.Value(auditDroppedFamily); err != nil {
			return p, err
		}
	}
	return p, nil
}

// crossCheckTCP reconciles the client ledger against the TCP listener's
// own counters: every ok reply must be a server-scored frame, every
// flagged reply a server-flagged one, and every error reply a
// server-rejected frame. With audit enabled, the ledger accounting
// invariant (recorded + dropped == scored) holds exactly as in HTTP
// mode because the listener shares the HTTP server's audit ledger.
func crossCheckTCP(preScrape, postScrape scrape, ledger *Ledger, expectAudit bool) *CrossCheck {
	cc := &CrossCheck{}
	pre, err := parseTCPCounters(preScrape, expectAudit)
	if err != nil {
		cc.Details = append(cc.Details, fmt.Sprintf("pre-run /metrics: %v", err))
		return cc
	}
	postC, err := parseTCPCounters(postScrape, expectAudit)
	if err != nil {
		cc.Details = append(cc.Details, fmt.Sprintf("post-run /metrics: %v", err))
		return cc
	}
	cc.ClientOK = ledger.ByStatus["200"]
	cc.ServerReceivedDelta = int64(postC.scored - pre.scored)
	cc.ClientFlagged = ledger.Flagged
	cc.ServerFlaggedDelta = int64(postC.flagged - pre.flagged)
	cc.ServerRejectedDelta = int64(postC.badFrames - pre.badFrames)
	cc.ClientErrors = ledger.ByStatus["400"]

	if cc.ClientOK != cc.ServerReceivedDelta {
		cc.Details = append(cc.Details, fmt.Sprintf(
			"client saw %d ok replies but server %s moved by %d", cc.ClientOK, tcpScoredFamily, cc.ServerReceivedDelta))
	}
	if cc.ClientFlagged != cc.ServerFlaggedDelta {
		cc.Details = append(cc.Details, fmt.Sprintf(
			"client decoded %d flagged replies but server %s moved by %d", cc.ClientFlagged, tcpFlaggedFamily, cc.ServerFlaggedDelta))
	}
	if ledger.Timeouts == 0 && ledger.ConnErrors == 0 && cc.ClientErrors != cc.ServerRejectedDelta {
		cc.Details = append(cc.Details, fmt.Sprintf(
			"client saw %d error replies but server %s moved by %d", cc.ClientErrors, tcpBadFramesFamily, cc.ServerRejectedDelta))
	}
	if expectAudit {
		cc.AuditRecordsDelta = int64(postC.audit[0] - pre.audit[0])
		cc.AuditDroppedDelta = int64(postC.audit[1] - pre.audit[1])
		ledger.AuditRecords = cc.AuditRecordsDelta
		ledger.AuditDropped = cc.AuditDroppedDelta
		if sum := cc.AuditRecordsDelta + cc.AuditDroppedDelta; sum != cc.ServerReceivedDelta {
			cc.Details = append(cc.Details, fmt.Sprintf(
				"audit ledger accounted for %d decisions (%d recorded + %d dropped) but server scored %d",
				sum, cc.AuditRecordsDelta, cc.AuditDroppedDelta, cc.ServerReceivedDelta))
		}
		if cc.AuditRecordsDelta == 0 && cc.ServerReceivedDelta > 0 {
			cc.Details = append(cc.Details,
				"audit expected but polygraph_audit_records_total did not move")
		}
	}
	cc.OK = len(cc.Details) == 0
	return cc
}
