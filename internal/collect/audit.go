package collect

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"polygraph/internal/audit"
	"polygraph/internal/core"
	"polygraph/internal/obs"
)

// auditor bridges the scoring paths to the decision ledger: it applies
// the ledger's sampling policy, builds the explanation only for
// decisions that will actually be recorded, and stamps each record with
// the hash of the exact model that produced the verdict.
type auditor struct {
	ledger *audit.Ledger
	topK   int
}

// record audits one scored decision. dep is the deployment snapshot the
// verdict came from (model + hash loaded together, so a concurrent
// SwapModel cannot mismatch them). Returns nil for sampled-out benign
// decisions.
func (a *auditor) record(dep *deployed, tr *obs.Trace, endpoint, sessionID, userAgent string, vec []float64, res core.Result) error {
	if !a.ledger.Admit(res.Flagged()) {
		return nil
	}
	ex, err := dep.m.ExplainResult(vec, userAgent, res, a.topK)
	if err != nil {
		return err
	}
	rec := audit.Record{
		TimeNs:      time.Now().UnixNano(),
		ModelHash:   dep.hash,
		SessionID:   sessionID,
		UserAgent:   userAgent,
		Endpoint:    endpoint,
		Vector:      vec,
		Verdict:     ex.Verdict,
		Explanation: ex,
	}
	if tr != nil {
		rec.TraceID = tr.ID.String()
	}
	return a.ledger.Append(rec)
}

// handleDecisions serves the ledger's recent-record ring as JSON:
// GET /debug/decisions?n=50&verdict=flagged|benign&trace=<id>.
func (s *Server) handleDecisions(w http.ResponseWriter, r *http.Request) {
	if s.auditor == nil {
		http.Error(w, "audit ledger not configured", http.StatusNotFound)
		return
	}
	q := r.URL.Query()
	n := 50
	if v := q.Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed <= 0 {
			s.reject(w, nil, http.StatusBadRequest, reasonBadRequest, "bad n %q", v)
			return
		}
		n = parsed
	}
	verdict := q.Get("verdict")
	switch verdict {
	case "", "flagged", "benign":
	default:
		s.reject(w, nil, http.StatusBadRequest, reasonBadRequest, "bad verdict %q (want flagged or benign)", verdict)
		return
	}
	recent := s.auditor.ledger.Recent(n, verdict, q.Get("trace"))
	if recent == nil {
		recent = []audit.Record{}
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(recent); err != nil {
		s.logWarn(nil, "collect: encode decisions failed", "err", err.Error())
	}
}

// handleDebugIndex is a plain-HTML map of the operator endpoints, so
// nothing needs the README to be discoverable. pprof and expvar live on
// polygraphd's separate -debug-addr listener; they are listed with that
// caveat.
func (s *Server) handleDebugIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/debug/" && r.URL.Path != "/debug" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write([]byte(`<!DOCTYPE html>
<html><head><title>polygraph debug</title></head><body>
<h1>polygraph debug index</h1>
<ul>
<li><a href="/debug/traces">/debug/traces</a> — recent request traces (?n=, ?slowest=)</li>
<li><a href="/debug/decisions">/debug/decisions</a> — recent audited verdicts (?n=, ?verdict=flagged|benign, ?trace=&lt;id&gt;)</li>
<li><a href="/debug/bundle">/debug/bundle</a> — download a support bundle (?pprof_seconds=, ?no-redact=1; serving-replica runtime)</li>
<li><a href="/debug/slo">/debug/slo</a> — SLO burn-rate status (404 until an engine is attached)</li>
<li><a href="/metrics">/metrics</a> — Prometheus exposition</li>
<li><a href="/v1/flagged">/v1/flagged</a> — retained flagged sessions (?min_risk=)</li>
<li><a href="/admin/model/info">/admin/model/info</a> — deployed model provenance (serving-replica runtime)</li>
<li><a href="/healthz">/healthz</a> — liveness</li>
<li><a href="/debug/pprof/">/debug/pprof/</a>, <a href="/debug/vars">/debug/vars</a> — profiles and expvar (here with serving debug mode; otherwise on the polygraphd <code>-debug-addr</code> listener)</li>
</ul>
</body></html>
`))
}
