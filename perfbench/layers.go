package main

import (
	"context"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"polygraph/internal/audit"
	"polygraph/internal/collect"
	"polygraph/internal/core"
	"polygraph/internal/fingerprint"
	"polygraph/internal/obs"
)

// The in-process layer probes time calls into each layer's public
// functions from the benchmark's own code, on the workload's own
// inputs, while the server (if any) sits idle. They are the per-layer
// costs a request pays inside the handler; tracing inside the program
// itself is left to the program.

// probeRounds and probeRound size each probe: the median of rounds of
// at least this long.
const (
	probeRounds = 5
	probeRound  = 30 * time.Millisecond
)

// perOp times fn over rounds of whole passes and returns the median
// nanoseconds per call and the calls made; fn(i) is one call.
func perOp(n int, fn func(i int) error) (float64, int, error) {
	var rounds []float64
	calls := 0
	for r := 0; r < probeRounds; r++ {
		start := time.Now()
		k := 0
		for time.Since(start) < probeRound {
			for i := 0; i < n; i++ {
				if err := fn(i); err != nil {
					return 0, 0, err
				}
			}
			k += n
		}
		rounds = append(rounds, float64(time.Since(start).Nanoseconds())/float64(k))
		calls += k
	}
	return median(rounds), calls, nil
}

// probeLayers reports fingerprint, core, audit and obs costs on up to
// 4096 of the workload's requests, scored by model. batch is the batch
// size for the batch-scoring probe.
func probeLayers(ctx context.Context, o *options, rep *report, model *core.Model, reqs []request, batch int) error {
	reqs = reqs[:min(len(reqs), 4096)]
	n := len(reqs)

	ns, calls, err := perOp(n, func(i int) error {
		_, err := fingerprint.UnmarshalBinary(reqs[i].binary)
		return err
	})
	if err != nil {
		return err
	}
	rep.set("fingerprint.decode_ns", ns, calls, "UnmarshalBinary")

	scratch := model.NewScratch()
	results := make([]core.Result, n)
	ns, calls, err = perOp(n, func(i int) error {
		res, err := model.ScoreStringWith(scratch, reqs[i].vector, reqs[i].userAgent)
		results[i] = res
		return err
	})
	if err != nil {
		return err
	}
	rep.set("core.score_ns", ns, calls, "ScoreStringWith")
	rep.set("core.flag_share", flagShare(reqs), n, "oracle-flagged share of the workload's sessions")

	blocks := n / batch
	vecs := make([][]float64, n)
	uas := make([]string, n)
	for i := range reqs {
		vecs[i], uas[i] = reqs[i].vector, reqs[i].userAgent
	}
	ns, calls, err = perOp(blocks, func(b int) error {
		lo, hi := b*batch, (b+1)*batch
		_, err := model.ScoreStringBatchContext(ctx, vecs[lo:hi], uas[lo:hi], 0)
		return err
	})
	if err != nil {
		return err
	}
	rep.set("core.score_batch_ns_per_row", ns/float64(batch), calls*batch, fmt.Sprintf("ScoreStringBatchContext, batch %d", batch))

	ns, calls, err = perOp(n, func(i int) error {
		_, err := model.ExplainResult(reqs[i].vector, reqs[i].userAgent, results[i], 0)
		return err
	})
	if err != nil {
		return err
	}
	rep.set("core.explain_us", ns/1e3, calls, "ExplainResult")

	mon, err := obs.NewDriftMonitor(obs.DriftConfig{Features: fingerprint.Names(model.Features), Reservoir: 512, Seed: 1})
	if err != nil {
		return err
	}
	ns, calls, err = perOp(n, func(i int) error {
		mon.Observe(reqs[i].vector)
		return nil
	})
	if err != nil {
		return err
	}
	rep.set("obs.drift_observe_ns", ns, calls, "DriftMonitor.Observe")

	return probeAudit(o, rep, model, reqs, results)
}

// probeAudit appends records shaped like the server's (explanation
// included) to a fresh ledger and times each Append.
func probeAudit(o *options, rep *report, model *core.Model, reqs []request, results []core.Result) error {
	dir := filepath.Join(o.runDir, "audit-probe")
	ledger, err := audit.Open(audit.Config{Dir: dir})
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	hash, err := model.Hash()
	if err != nil {
		ledger.Close()
		return err
	}
	records := make([]audit.Record, len(reqs))
	for i := range reqs {
		ex, err := model.ExplainResult(reqs[i].vector, reqs[i].userAgent, results[i], 0)
		if err != nil {
			ledger.Close()
			return err
		}
		records[i] = audit.Record{
			TimeNs:      time.Now().UnixNano(),
			ModelHash:   hash,
			SessionID:   hex.EncodeToString(reqs[i].sessionID[:]),
			UserAgent:   reqs[i].userAgent,
			Endpoint:    collect.EndpointBinary,
			Vector:      reqs[i].vector,
			Verdict:     ex.Verdict,
			Explanation: ex,
		}
	}
	lat := make([]float64, len(records))
	for i := range records {
		start := time.Now()
		if err := ledger.Append(records[i]); err != nil {
			ledger.Close()
			return err
		}
		lat[i] = us(time.Since(start))
	}
	c := ledger.Counters()
	if err := ledger.Close(); err != nil {
		return err
	}
	d := newDist(lat)
	rep.set("audit.append_us.p50", d.q(0.5), len(d), "Ledger.Append")
	rep.set("audit.append_us.p99", d.q(0.99), len(d), d.tail())
	rep.set("audit.bytes_per_record", float64(c.Bytes)/float64(max(c.Records, 1)), int(c.Records), "framed bytes")
	return nil
}

// spanCounter is a pipeline.SpanRecorder that counts spans: the
// traced half of the retrain workload records every stage span.
type spanCounter struct{ n atomic.Int64 }

func (s *spanCounter) RecordSpan(string, time.Time, time.Duration) { s.n.Add(1) }
