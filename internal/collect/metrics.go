package collect

import (
	"io"
	"net/http"
	"strings"
	"time"

	"polygraph/internal/audit"
	"polygraph/internal/obs"
)

// Prometheus text-exposition metrics for the scoring service, composed
// from internal/obs's writers. Stdlib only: the format is plain text,
// and every value already lives on an atomic counter or histogram.
// Mounted at GET /metrics; obs.Lint checks the output in CI
// (cmd/promlint) and in this package's tests.

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.writeMetricsTo(w)
}

// MetricsText renders the full exposition in-process — the SLO engine's
// scrape source and the serving replica's bundle capture both read the
// page without a loopback round trip.
func (s *Server) MetricsText() string {
	var b strings.Builder
	s.writeMetricsTo(&b)
	return b.String()
}

func (s *Server) writeMetricsTo(w io.Writer) {
	obs.WriteBuildInfo(w)
	obs.WriteRuntimeMetrics(w)
	obs.WriteMetric(w, "polygraph_collections_total",
		"Fingerprint payloads scored.", "counter", float64(s.stats.received.Load()))
	obs.WriteMetric(w, "polygraph_flagged_total",
		"Sessions flagged as suspicious.", "counter", float64(s.stats.flagged.Load()))

	// Rejects broken out by cause. Every reason is always present
	// (zeros included) so rate() works from the first scrape; the sum
	// across reasons is the total.
	reasons := make([]obs.LabeledValue, numReasons)
	for i := range reasons {
		reasons[i] = obs.LabeledValue{Label: reasonNames[i], Value: float64(s.rejects[i].Load())}
	}
	obs.WriteLabeledFamily(w, "polygraph_rejected_total",
		"Rejected requests by cause.", "counter", "reason", reasons)

	// Per-endpoint request-handling latency of scored requests.
	series := []obs.HistogramSeries{
		obs.HistogramSnapshot(EndpointBinary, s.hists[EndpointBinary]),
		obs.HistogramSnapshot(EndpointJSON, s.hists[EndpointJSON]),
	}
	if tcp := s.tcp.Load(); tcp != nil {
		series = append(series, obs.HistogramSnapshot(EndpointTCP, &tcp.hist))
	}
	obs.WriteHistogramFamily(w, "polygraph_score_duration_microseconds",
		"Request-handling latency of scored requests per endpoint, in microseconds.",
		"endpoint", series)

	obs.WriteMetric(w, "polygraph_store_entries",
		"Flagged decisions retained in memory.", "gauge", float64(s.store.Len()))
	model := s.model.load()
	obs.WriteMetric(w, "polygraph_model_clusters",
		"Clusters in the deployed model.", "gauge", float64(model.KMeans.K))
	obs.WriteMetric(w, "polygraph_model_accuracy",
		"Training accuracy of the deployed model.", "gauge", model.Accuracy)
	trainedAt := 0.0
	if t := s.ModelTrainedAt(); !t.IsZero() {
		trainedAt = float64(t.UnixNano()) / float64(time.Second)
	}
	obs.WriteMetric(w, "polygraph_model_trained_timestamp_seconds",
		"When the deployed model was trained (unix seconds; 0 = unknown).",
		"gauge", trainedAt)

	if tcp := s.tcp.Load(); tcp != nil {
		obs.WriteMetric(w, "polygraph_tcp_scored_total",
			"Payload frames scored over the TCP batch listener.", "counter", float64(tcp.Scored()))
		obs.WriteMetric(w, "polygraph_tcp_flagged_total",
			"TCP-scored frames whose verdict was flagged.", "counter", float64(tcp.Flagged()))
		obs.WriteMetric(w, "polygraph_tcp_bad_handshakes_total",
			"TCP connections dropped before or at the hello handshake.", "counter", float64(tcp.BadConns()))
		obs.WriteMetric(w, "polygraph_tcp_bad_frames_total",
			"TCP frames rejected after the handshake and answered with the error flag.",
			"counter", float64(tcp.BadFrames()))
		// Batch sizes ride the microsecond histogram scale: le=N reads
		// as a batch of N frames and _sum is total coalesced frames.
		obs.WriteHistogramFamily(w, "polygraph_tcp_batch_size",
			"Coalesced TCP batch sizes in frames (recorded on the microsecond scale).",
			"endpoint", []obs.HistogramSeries{obs.HistogramSnapshot(EndpointTCP, tcp.BatchHist())})
	}

	// Audit-ledger families are always present (zeros when no ledger is
	// configured) so the promlint -require list holds for every
	// deployment shape. The TCP listener shares the HTTP server's
	// ledger, so its records are already in these counters.
	var ac audit.Counters
	if s.auditor != nil {
		ac = s.auditor.ledger.Counters()
	}
	obs.WriteMetric(w, "polygraph_audit_records_total",
		"Decisions durably recorded in the audit ledger.", "counter", float64(ac.Records))
	obs.WriteMetric(w, "polygraph_audit_dropped_total",
		"Decisions not recorded: benign sampling plus append failures.", "counter", float64(ac.Dropped))
	obs.WriteMetric(w, "polygraph_audit_bytes_total",
		"Framed bytes appended to the audit ledger.", "counter", float64(ac.Bytes))

	if s.drift != nil {
		s.drift.WriteMetrics(w)
	}

	// Per-stage timings of the (re)train that produced the deployed
	// model, when the operator recorded them via SetTrainStages.
	if stages := s.TrainStages(); len(stages) > 0 {
		durations := make([]obs.LabeledValue, len(stages))
		rowsIn := make([]obs.LabeledValue, len(stages))
		rowsOut := make([]obs.LabeledValue, len(stages))
		for i, st := range stages {
			durations[i] = obs.LabeledValue{Label: st.Name, Value: st.Duration.Seconds()}
			rowsIn[i] = obs.LabeledValue{Label: st.Name, Value: float64(st.RowsIn)}
			rowsOut[i] = obs.LabeledValue{Label: st.Name, Value: float64(st.RowsOut)}
		}
		obs.WriteLabeledFamily(w, "polygraph_train_stage_duration_seconds",
			"Wall time of each pipeline stage in the last (re)train.", "gauge", "stage", durations)
		obs.WriteLabeledFamily(w, "polygraph_train_stage_rows_in",
			"Rows entering each pipeline stage in the last (re)train.", "gauge", "stage", rowsIn)
		obs.WriteLabeledFamily(w, "polygraph_train_stage_rows_out",
			"Rows leaving each pipeline stage in the last (re)train.", "gauge", "stage", rowsOut)
	}

	// The SLO engine's families ride the same scrape when one is
	// attached. The engine snapshots this exposition on its own tick;
	// these gauges reflect the last completed evaluation, so including
	// them here cannot recurse.
	if e := s.slo.Load(); e != nil {
		e.WriteMetrics(w)
	}
}
