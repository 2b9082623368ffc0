package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"testing"

	"polygraph/internal/obs"
)

func TestQuantileRuleNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{9, 0},
		{19, 0},
		{20, 0.5},
		{99, 0.5},
		{100, 0.9},
		{999, 0.9},
		{1000, 0.99},
		{10000, 0.999},
		{100000, 0.9999},
	} {
		if got := highestSupported(tc.n); got != tc.want {
			t.Errorf("highestSupported(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
	d := newDist([]float64{5, 1, 4, 2, 3, math.Inf(1)})
	if got := d.q(0.5); got != 3 {
		t.Errorf("median = %g, want 3 (nearest rank)", got)
	}
	if got := d.q(0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 = %g, want +Inf: a failed request misses every limit", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(v)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Fatalf("quartiles(1,2) = %g %g %g, want 0.75 1.5 2.25", q1, q2, q3)
	}
}

func TestSpanSelfTime(t *testing.T) {
	p := &httpPhase{samples: []httpSample{
		{sent: true, ok: true, seq: 7, latUs: 300, phases: [5]float64{100, 1, 9, 150, 40}},
		{sent: true, ok: true, seq: 8, latUs: 200, phases: [5]float64{50, 0, 10, 120, 20}},
		{sent: true, seq: 9, latUs: math.Inf(1)},
	}}
	spans := []span{
		{Seq: 7, Nanos: 30_000, Endpoint: "/v1/collect"},
		{Seq: 8, Nanos: 100_000, Endpoint: "/v1/collect-json"},
		{Seq: 9, Nanos: 5_000, Endpoint: "/v1/collect"}, // failed request: no join
	}
	rep := newReport("t", true)
	clientLayers(rep, p, spans)
	if got := rep.values["nethttp.self_us.p99"].v; got != 120 {
		t.Errorf("self p99 = %g, want 150-30 = 120", got)
	}
	if got := rep.values["nethttp.self_us.p50"].v; got != 20 {
		t.Errorf("self p50 = %g, want 120-100 = 20", got)
	}
	if got := rep.values["collect.handler_us.binary.p50"]; got.v != 30 || got.n != 1 {
		t.Errorf("binary handler = %+v, want 30us from one span", got)
	}
	if got := rep.values["client.coverage"].v; got != 1 {
		t.Errorf("coverage = %g, want the phases to sum to the total", got)
	}
}

func TestLadderSearchTerminates(t *testing.T) {
	rungs := ladderRungs(4000)
	if rungs[0] != 4000 || rungs[len(rungs)-1] > ladderTop {
		t.Fatalf("ladder %v", rungs)
	}
	bound := int(math.Ceil(math.Log2(float64(len(rungs)))))
	for _, tc := range []struct {
		name string
		pass func(rate float64, call int) bool
		want float64
	}{
		{"knee at 9000", func(r float64, _ int) bool { return r <= 9000 }, 8990},
		{"all pass", func(float64, int) bool { return true }, rungs[len(rungs)-1]},
		{"none pass", func(float64, int) bool { return false }, rungs[0]},
		{"alternating", func(_ float64, call int) bool { return call%2 == 0 }, -1},
	} {
		calls := 0
		best, _, probes := searchLadder(rungs, 0, 1, func(rate float64) (bool, float64) {
			calls++
			return tc.pass(rate, calls), rate
		})
		if probes > bound || probes != calls {
			t.Errorf("%s: %d probes (%d calls), bound %d", tc.name, probes, calls, bound)
		}
		if tc.want > 0 && math.Abs(rungs[best]-tc.want) > tc.want*0.05 {
			t.Errorf("%s: best rung %g, want about %g", tc.name, rungs[best], tc.want)
		}
	}
	if best, _, probes := searchLadder(rungs, -1, 0, func(float64) (bool, float64) { return false, 0 }); best != -1 || probes == 0 {
		t.Errorf("no known rung and none passing: best %d after %d probes", best, probes)
	}
}

func TestOracleMismatchCountsAsFailure(t *testing.T) {
	r := &request{sessionID: [16]byte{1}, want: verdict{Cluster: 3, RiskFactor: 2, Flagged: true}}
	var c checker
	good := httpDecision{SessionID: "01000000000000000000000000000000", Cluster: 3, RiskFactor: 2, Flagged: true}
	c.attempt(r.checkHTTP(&good))
	bad := good
	bad.RiskFactor = 0
	if err := r.checkHTTP(&bad); err != nil {
		c.attempt(oracleMismatch{err})
	} else {
		t.Fatal("a different risk factor passed the oracle")
	}
	c.attempt(statusError{errors.New("status 500")})
	if c.attempted != 3 || c.failed != 2 || c.mismatches != 1 || c.non2xx != 1 {
		t.Fatalf("checker: %d attempted, %d failed, %d mismatches, %d non-2xx", c.attempted, c.failed, c.mismatches, c.non2xx)
	}

	reply := make([]byte, tcpReplySize)
	copy(reply, r.sessionID[:])
	reply[17], reply[19], reply[20] = 3, 2, tcpFlagFlag
	if _, err := r.checkTCP(reply); err != nil {
		t.Fatalf("matching TCP reply: %v", err)
	}
	reply[20] = 0
	if errFlag, err := r.checkTCP(reply); err == nil || errFlag {
		t.Fatalf("unflagged reply for a flagged verdict: errFlag %v err %v", errFlag, err)
	}
	reply[20] = tcpFlagError
	if errFlag, _ := r.checkTCP(reply); !errFlag {
		t.Fatal("error-flag reply not reported")
	}
}

func TestMetricsDelta(t *testing.T) {
	page := func(collections, gc float64, tcp [3]float64, pause [3]float64) *obs.Exposition {
		var b strings.Builder
		obs.WriteMetric(&b, famCollections, "h", "counter", collections)
		obs.WriteLabeledFamily(&b, famRejected, "h", "counter", "reason", []obs.LabeledValue{{Label: "decode", Value: 1}, {Label: "bad_json", Value: 2}})
		obs.WriteMetric(&b, famGCCycles, "h", "counter", gc)
		b.WriteString("# TYPE " + famGCPause + " histogram\n")
		for i, le := range []string{"1e-05", "0.0001", "+Inf"} {
			b.WriteString(famGCPause + `_bucket{le="` + le + `"} ` + ftoa(pause[i]) + "\n")
		}
		b.WriteString("# TYPE " + famScoreHist + " histogram\n")
		for i, le := range []string{"16", "32", "+Inf"} {
			b.WriteString(famScoreHist + `_bucket{endpoint="tcp",le="` + le + `"} ` + ftoa(tcp[i]) + "\n")
			b.WriteString(famScoreHist + `_bucket{endpoint="/v1/collect",le="` + le + `"} 0` + "\n")
		}
		return obs.ParseExpositionString(b.String())
	}
	d := promDelta{
		before: page(10, 3, [3]float64{1, 2, 2}, [3]float64{1, 1, 1}),
		after:  page(25, 5, [3]float64{50, 149, 151}, [3]float64{1, 99, 101}),
	}
	if got := d.counter(famCollections); got != 15 {
		t.Errorf("collections delta = %g, want 15", got)
	}
	if got := d.counter(famRejected); got != 0 {
		t.Errorf("rejects delta = %g, want 0 over unchanged labeled series", got)
	}
	les, counts := d.buckets(famScoreHist, "endpoint", "tcp")
	if want := []float64{49, 98, 2}; !equal(counts, want) {
		t.Errorf("tcp bucket deltas = %v, want %v", counts, want)
	}
	if got := bucketQuantile(les, counts, 0.95); got != 32 {
		t.Errorf("p95 bucket = %g, want 32", got)
	}
	if got := bucketQuantile(les, counts, 1); !math.IsInf(got, 1) {
		t.Errorf("max bucket = %g, want +Inf", got)
	}
	les, counts = d.buckets(famGCPause, "")
	if got := bucketQuantile(les, counts, 0.5); got != 1e-4 || histCount(counts) != 100 {
		t.Errorf("gc pause median %g over %g, want 1e-4 over 100", got, histCount(counts))
	}
}

// TestBenchmarkJSONMatchesMetrics pins BENCHMARK.json's metric lists to
// the ones the benchmark prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d printed", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s (%s), printed %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %s is not in the benchmark", w.Name)
		}
	}
}

func ftoa(v float64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

func equal(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
