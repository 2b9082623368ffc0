package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"polygraph/internal/core"
	"polygraph/internal/obs"
)

const (
	// setupLaunches is how many times a serving run launches the
	// server; setup_s is their median and the last one is measured.
	setupLaunches = 5
	// poolSessions is how many distinct sessions a serving workload
	// cycles through.
	poolSessions = 20000
	warmup       = 500 * time.Millisecond
)

// serverRun is a measured server and what the benchmark knows about it.
type serverRun struct {
	c      *child
	oracle *core.Model
	meta   *http.Client
	pin    *pinning
	// spinners are the idle-CPU spinners of an open-loop run.
	spinners []*child
}

// startServer trains the oracle, launches the server setupLaunches
// times (reporting the median set-up time), and verifies the deployed
// model is the oracle's.
func startServer(ctx context.Context, o *options, rep *report, args ...string) (*serverRun, *core.TrainReport, float64, error) {
	oracle, orep, genMs, err := trainOracle(ctx)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("oracle: %w", err)
	}
	pin, err := pinGenerator()
	if err != nil {
		return nil, nil, 0, fmt.Errorf("pin CPUs: %w", err)
	}
	var setups []float64
	var c *child
	for k := 0; k < setupLaunches; k++ {
		launchArgs := args
		if o.auditSample > 0 {
			dir := filepath.Join(o.runDir, fmt.Sprintf("audit-%d", k))
			launchArgs = append([]string{"-audit-dir", dir, "-audit-sample", strconv.Itoa(o.auditSample)}, args...)
		}
		next, setup, err := launchChild(ctx, o.runDir, fmt.Sprintf("server-%d.log", k), pin, launchArgs...)
		if err != nil {
			return nil, nil, 0, err
		}
		setups = append(setups, setup)
		if k < setupLaunches-1 {
			next.stop()
			os.RemoveAll(filepath.Join(o.runDir, fmt.Sprintf("audit-%d", k)))
			continue
		}
		c = next
	}
	rep.set("setup_s", median(setups), len(setups), "launch to /healthz 200, median of launches")
	s := &serverRun{c: c, oracle: oracle, meta: &http.Client{Timeout: 10 * time.Second}, pin: pin}
	if err := s.checkModel(ctx, rep); err != nil {
		c.stop()
		return nil, nil, 0, err
	}
	return s, orep, genMs, nil
}

// checkModel compares the deployed model's hash with the oracle's.
func (s *serverRun) checkModel(ctx context.Context, rep *report) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.c.httpURL+"/admin/model/info", nil)
	if err != nil {
		return err
	}
	resp, err := s.meta.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var info struct {
		Hash string `json:"hash"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return fmt.Errorf("decode /admin/model/info: %w", err)
	}
	want, err := s.oracle.Hash()
	if err != nil {
		return err
	}
	if info.Hash != want {
		rep.problemf("deployed model hash %s, oracle %s", info.Hash, want)
	}
	return nil
}

func (s *serverRun) scrape(ctx context.Context) (*obs.Exposition, error) {
	return scrapeMetrics(ctx, s.meta, s.c.httpURL)
}

// finish records the server's peak memory and stops it.
func (s *serverRun) finish(rep *report) {
	rss, err := peakRSSMiB(strconv.Itoa(s.c.pid()))
	if err != nil {
		rep.problemf("read server VmHWM: %v", err)
	}
	rep.set("rss_mb", rss, 1, "server VmHWM")
	s.c.stop()
	for _, c := range s.spinners {
		c.stop()
	}
}

// keepCPUsBusy starts a spinner on each CPU of a pinned run (see
// spin.go); finish stops them.
func (s *serverRun) keepCPUsBusy() error {
	if s.pin == nil {
		return nil
	}
	var err error
	s.spinners, err = startSpinners(s.pin)
	return err
}

// cpuPer returns the server's CPU microseconds per unit over an
// interval, given /proc readings at both ends.
func cpuPer(before, after time.Duration, units int) float64 {
	if units == 0 {
		return math.NaN()
	}
	return us(after-before) / float64(units)
}

// runtimeLayers reports the server's runtime deltas over an interval.
func runtimeLayers(rep *report, d promDelta) {
	rep.set("runtime.gc_cycles", d.counter(famGCCycles), 1, "server GC cycles in the interval")
	les, counts := d.buckets(famGCPause, "")
	rep.set("runtime.gc_pause_p99_us", bucketQuantile(les, counts, 0.99)*1e6, int(histCount(counts)), "bucket upper bound")
	les, counts = d.buckets(famSchedLat, "")
	rep.set("runtime.sched_latency_p99_us", bucketQuantile(les, counts, 0.99)*1e6, int(histCount(counts)), "bucket upper bound")
}

// setupStageLayers reports the server's own start-up training stages.
func setupStageLayers(rep *report, e *obs.Exposition) {
	for _, st := range trainStages {
		v := math.NaN()
		for _, smp := range e.Samples(famTrainStage) {
			if smp.Label("stage") == st {
				v = smp.Value * 1e3
			}
		}
		rep.set("setup.train_stage."+st+"_ms", v, 1, "server /metrics")
	}
}

// trainLayers reports training stages: the retrain workload's own
// trains, or on a serving workload the oracle's 40k-session train.
func trainLayers(rep *report, genMs []float64, reports []*core.TrainReport) {
	rep.set("train.dataset_ms", median(genMs), len(genMs), "dataset.Generate")
	for _, st := range trainStages {
		var v []float64
		for _, tr := range reports {
			for _, t := range tr.Stages {
				if t.Name == st {
					v = append(v, float64(t.Duration.Nanoseconds())/1e6)
				}
			}
		}
		rep.set("train."+st+"_ms", median(v), len(v), "TrainReport.Stages")
	}
	var ratio []float64
	for _, tr := range reports {
		for _, t := range tr.Stages {
			if t.Name == "iforest-filter" && t.RowsIn > 0 {
				ratio = append(ratio, float64(t.RowsOut)/float64(t.RowsIn))
			}
		}
	}
	rep.set("train.iforest_rows_out_ratio", median(ratio), len(ratio), "rows kept by the outlier filter")
}
