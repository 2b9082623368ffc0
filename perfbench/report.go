package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// metricDef is one metric the benchmark reports, as BENCHMARK.json
// lists it.
type metricDef struct {
	name, unit string
}

// endToEnd are the user-visible metrics of an untraced run, the ones
// BENCHMARK.json gates. What a "request" is differs by workload (see
// the README): a login decision, a 64-frame TCP block, or one training
// run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"rss_mb", "MiB"},
}

// diagnostics are end-to-end metrics printed but not gated: on a shared
// two-core box their run-to-run spread on login-http exceeded any
// bound BENCHMARK.json may set (see CHANGES.md).
var diagnostics = []metricDef{
	{"p99_ms", "ms"},
	{"throughput", "1/s"},
}

// perLayer are the metrics of a traced run. A layer that is not on a
// workload's path reports 0 with the note "off-path".
var perLayer = []metricDef{
	{"client.queue_us.p50", "us"},
	{"client.queue_us.p99", "us"},
	{"client.conn_us.p99", "us"},
	{"client.write_us.p50", "us"},
	{"client.wait_us.p50", "us"},
	{"client.wait_us.p99", "us"},
	{"client.read_us.p50", "us"},
	{"client.coverage", "ratio"},
	{"gen.lag_us.p99", "us"},
	{"gen.cpu_us_per_req", "us"},
	{"nethttp.self_us.p50", "us"},
	{"nethttp.self_us.p99", "us"},
	{"collect.handler_us.binary.p50", "us"},
	{"collect.handler_us.binary.p99", "us"},
	{"collect.handler_us.json.p50", "us"},
	{"collect.handler_us.json.p99", "us"},
	{"collect.hist_p99_us", "us"},
	{"collect.scored", "count"},
	{"collect.rejects", "count"},
	{"server.cpu_us_per_req", "us"},
	{"fingerprint.decode_ns", "ns"},
	{"core.score_ns", "ns"},
	{"core.score_batch_ns_per_row", "ns"},
	{"core.explain_us", "us"},
	{"core.flag_share", "ratio"},
	{"audit.append_us.p50", "us"},
	{"audit.append_us.p99", "us"},
	{"audit.record_share", "ratio"},
	{"audit.bytes_per_record", "bytes"},
	{"obs.drift_observe_ns", "ns"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_p99_us", "us"},
	{"runtime.sched_latency_p99_us", "us"},
	{"tcp.batch_mean", "frames"},
	{"tcp.frame_us.p50", "us"},
	{"tcp.frame_us.p99", "us"},
	{"tcp.block_write_us", "us"},
	{"tcp.block_wait_us", "us"},
	{"tcp.block_read_us", "us"},
	{"tcp.bad_frames", "count"},
	{"train.dataset_ms", "ms"},
	{"train.scale_ms", "ms"},
	{"train.iforest-filter_ms", "ms"},
	{"train.pca_ms", "ms"},
	{"train.kmeans_ms", "ms"},
	{"train.cluster-table_ms", "ms"},
	{"train.iforest_rows_out_ratio", "ratio"},
	{"setup.train_stage.scale_ms", "ms"},
	{"setup.train_stage.iforest-filter_ms", "ms"},
	{"setup.train_stage.pca_ms", "ms"},
	{"setup.train_stage.kmeans_ms", "ms"},
	{"setup.train_stage.cluster-table_ms", "ms"},
	{"trace.overhead_ms", "ms"},
}

// trainStages are the pipeline stages reported per layer (the novelty
// guard is off in polygraphd's default training).
var trainStages = []string{"scale", "iforest-filter", "pca", "kmeans", "cluster-table"}

// value is one measured metric with its sample count and a note.
type value struct {
	v    float64
	n    int
	note string
}

// report collects one run's metrics, counts and correctness problems.
type report struct {
	workload string
	trace    bool
	values   map[string]value
	// info lines are printed for diagnosis and not gated.
	info     []string
	check    checker
	problems []string
}

func newReport(workload string, trace bool) *report {
	return &report{workload: workload, trace: trace, values: map[string]value{}}
}

func (r *report) set(name string, v float64, n int, note string) {
	r.values[name] = value{v: v, n: n, note: note}
}

func (r *report) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

func (r *report) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// correct reports whether the run passed every output check.
func (r *report) correct() bool {
	return len(r.problems) == 0 && r.check.failed == 0
}

// jsonNumber keeps the result line valid JSON: a metric that read +Inf
// (a failed operation at that percentile) is printed as 1e300.
func jsonNumber(v float64) float64 {
	switch {
	case math.IsNaN(v):
		return 0
	case math.IsInf(v, 1):
		return 1e300
	case math.IsInf(v, -1):
		return -1e300
	}
	return v
}

// write prints the human-readable lines and, last, the one-line JSON
// result. It returns an error when a listed metric is missing.
func (r *report) write(w io.Writer) error {
	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	type out struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]out, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		note := ""
		if v.note != "" {
			note = "  " + v.note
		}
		fmt.Fprintf(w, "%-40s %14.6g %-6s n=%d%s\n", d.name, v.v, d.unit, v.n, note)
		metrics[d.name] = out{Value: jsonNumber(v.v), Unit: d.unit}
	}
	if !r.trace {
		for _, d := range diagnostics {
			if v, ok := r.values[d.name]; ok {
				fmt.Fprintf(w, "# %-38s %14.6g %-6s n=%d  %s (not gated)\n", d.name, v.v, d.unit, v.n, v.note)
			}
		}
	}
	for _, line := range r.info {
		fmt.Fprintf(w, "# %s\n", line)
	}
	errRate := 0.0
	if r.check.attempted > 0 {
		errRate = float64(r.check.failed) / float64(r.check.attempted)
	}
	fmt.Fprintf(w, "%-40s %14.6g %-6s n=%d  (failed %d, oracle mismatches %d)\n",
		"error_rate", errRate, "ratio", r.check.attempted, r.check.failed, r.check.mismatches)
	for _, m := range r.check.msgs {
		fmt.Fprintf(w, "# failure: %s\n", m)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "# CHECK FAILED: %s\n", p)
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	b, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]out `json:"metrics"`
	}{r.correct(), r.check.attempted, r.check.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// offPath fills every per-layer metric the run did not measure with 0
// and the note "off-path": that layer is not on this workload's path.
func (r *report) offPath() {
	for _, d := range perLayer {
		if _, ok := r.values[d.name]; !ok {
			r.set(d.name, 0, 0, "off-path")
		}
	}
}
