package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"

	"polygraph/internal/obs"
)

// The /metrics families the benchmark reads from outside the server.
// It reads nothing else from the exposition: the store gauge and the
// avg/max latency gauges are slated for deletion, and so are the
// /v1/stats and /v1/flagged endpoints, which it never calls.
const (
	famCollections = "polygraph_collections_total"
	famFlagged     = "polygraph_flagged_total"
	famRejected    = "polygraph_rejected_total"
	famScoreHist   = "polygraph_score_duration_microseconds"
	famTCPScored   = "polygraph_tcp_scored_total"
	famTCPFlagged  = "polygraph_tcp_flagged_total"
	famTCPBad      = "polygraph_tcp_bad_frames_total"
	famTCPBatch    = "polygraph_tcp_batch_size"
	famAuditRec    = "polygraph_audit_records_total"
	famAuditDrop   = "polygraph_audit_dropped_total"
	famAuditBytes  = "polygraph_audit_bytes_total"
	famGCCycles    = "polygraph_go_gc_cycles_total"
	famGCPause     = "polygraph_go_gc_pause_seconds"
	famSchedLat    = "polygraph_go_sched_latency_seconds"
	famTrainStage  = "polygraph_train_stage_duration_seconds"
)

// scrapeMetrics fetches and parses one /metrics page.
func scrapeMetrics(ctx context.Context, client *http.Client, baseURL string) (*obs.Exposition, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("scrape /metrics: status %d", resp.StatusCode)
	}
	return obs.ParseExposition(resp.Body)
}

// promDelta is the change between two scrapes of one server: every
// server-side count the benchmark reconciles or reports is a delta
// over a measured interval, never a lifetime total.
type promDelta struct {
	before, after *obs.Exposition
}

// counter returns the delta of a family summed over its label sets.
func (d promDelta) counter(family string) float64 {
	return d.after.Sum(family) - d.before.Sum(family)
}

// buckets returns the per-bucket (non-cumulative) count deltas of a
// histogram family, summed over the series whose label has one of the
// given values; no values selects the unlabeled series. The returned
// upper bounds are in the family's unit.
func (d promDelta) buckets(family, label string, values ...string) (les, counts []float64) {
	a := histSeries(d.after, family, label, values)
	b := histSeries(d.before, family, label, values)
	les = make([]float64, 0, len(a))
	for le := range a {
		les = append(les, le)
	}
	sort.Float64s(les)
	prevA, prevB := 0.0, 0.0
	for _, le := range les {
		counts = append(counts, (a[le]-prevA)-(b[le]-prevB))
		prevA, prevB = a[le], b[le]
	}
	return les, counts
}

// histSeries maps each bucket bound to its cumulative count, summed
// over the selected series.
func histSeries(e *obs.Exposition, family, label string, values []string) map[float64]float64 {
	out := map[float64]float64{}
	for _, s := range e.Samples(family + "_bucket") {
		if len(values) == 0 {
			if label != "" && s.Label(label) != "" {
				continue
			}
		} else if !contains(values, s.Label(label)) {
			continue
		}
		le := math.Inf(1)
		if v := s.Label("le"); v != "+Inf" {
			parsed, err := strconv.ParseFloat(v, 64)
			if err != nil {
				continue
			}
			le = parsed
		}
		out[le] += s.Value
	}
	return out
}

// bucketQuantile returns the upper bound of the bucket holding the
// q-quantile of the delta histogram, NaN when it is empty. An
// observation in the +Inf bucket reads as +Inf.
func bucketQuantile(les, counts []float64, q float64) float64 {
	total := 0.0
	for _, c := range counts {
		total += c
	}
	if total <= 0 {
		return math.NaN()
	}
	rank := math.Max(1, math.Ceil(q*total))
	cum := 0.0
	for i, c := range counts {
		cum += c
		if cum >= rank {
			return les[i]
		}
	}
	return les[len(les)-1]
}

// histCount returns the total observations in the delta histogram.
func histCount(counts []float64) float64 {
	total := 0.0
	for _, c := range counts {
		total += c
	}
	return total
}

func contains(list []string, v string) bool {
	for _, x := range list {
		if x == v {
			return true
		}
	}
	return false
}
