package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// result is the JSON line a run prints last.
type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// parseResult reads the last line of a run's standard output.
func parseResult(stdout []byte) (*result, error) {
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return nil, fmt.Errorf("parse result line: %w", err)
	}
	return &r, nil
}

// repeatMain runs one workload n times, each with its own seed and in
// its own process, and prints every metric's median, quartiles, IQR
// share and (max−min)/median: the evidence behind the bounds in
// BENCHMARK.json.
func repeatMain(args []string) int {
	fs := flag.NewFlagSet("repeat", flag.ContinueOnError)
	n := fs.Int("n", 5, "runs")
	name := fs.String("workload", "", "workload")
	seed := fs.Uint64("seed", 1, "first seed; run i uses seed+i")
	seconds := fs.String("seconds", "20", "measured seconds per run")
	trace := fs.String("trace", "0", "0 or 1")
	workdir := fs.String("workdir", ".bench_build", "run scratch directory")
	if err := fs.Parse(args); err != nil || *n < 1 {
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench repeat:", err)
		return 1
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < *n; i++ {
		s := strconv.FormatUint(*seed+uint64(i), 10)
		var stdout bytes.Buffer
		cmd := exec.Command(exe, "--workload", *name, "--seed", s, "--seconds", *seconds, "--trace", *trace, "--workdir", *workdir)
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		runErr := cmd.Run()
		r, err := parseResult(stdout.Bytes())
		if err = errors.Join(runErr, err); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench repeat: seed %s: %v\n%s", s, err, stdout.String())
			return 1
		}
		fmt.Printf("seed %s: correct=%v attempted=%d failed=%d\n", s, r.Correct, r.Attempted, r.Failed)
		for k, m := range r.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%-40s %12s %12s %12s %9s %9s  unit\n", "metric", "median", "q1", "q3", "iqr/med", "rng/med")
	for _, k := range names {
		s := summarize(values[k])
		fmt.Printf("%-40s %12.6g %12.6g %12.6g %9.4f %9.4f  %s\n", k, s.Median, s.Q1, s.Q3, s.IQRShare, s.RangeShare, units[k])
	}
	return 0
}
