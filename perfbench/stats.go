package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
)

// minBeyond is the fewest samples that must lie above a percentile
// before it is reported as measured rather than extrapolated.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1) of sorted.
// Failed operations are recorded as +Inf, so a quantile that lands on
// one reads as +Inf: a failure misses every latency limit.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// supported reports whether n samples put at least minBeyond samples
// above the q-quantile.
func supported(n int, q float64) bool {
	return float64(n)*(1-q) >= minBeyond-1e-9
}

// tailPercentiles are the candidates for the highest supported
// percentile printed beside p99.
var tailPercentiles = []float64{0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999}

// highestSupported returns the highest candidate percentile that n
// samples support, or 0 when even the median is unsupported.
func highestSupported(n int) float64 {
	best := 0.0
	for _, q := range tailPercentiles {
		if supported(n, q) {
			best = q
		}
	}
	return best
}

// dist is a sorted sample of one latency or cost, in its own unit.
type dist []float64

func newDist(values []float64) dist {
	d := append(dist(nil), values...)
	sort.Float64s(d)
	return d
}

func (d dist) q(q float64) float64 { return quantile(d, q) }

// tail formats the highest percentile the sample supports, for the
// diagnostic column beside p99.
func (d dist) tail() string {
	q := highestSupported(len(d))
	if q == 0 {
		return "tail=n/a"
	}
	return fmt.Sprintf("p%s=%.4g", strconv.FormatFloat(math.Round(q*1e5)/1e3, 'f', -1, 64), d.q(q))
}

// median returns the median of values (the mean of the middle pair for
// an even count), NaN when empty.
func median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1, median and Q3 with the same method as Python's
// statistics.quantiles(values, n=4) ("exclusive"), which is the rule
// the benchmark's spread is judged by.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// Transcribed from CPython's exclusive method, clamp included.
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spreadSummary is one metric's run-to-run steadiness over repeats.
type spreadSummary struct {
	Median, Q1, Q3 float64
	// IQRShare is (Q3−Q1)/median: the spread the acceptance rule bounds.
	IQRShare float64
	// RangeShare is (max−min)/median.
	RangeShare float64
}

func summarize(values []float64) spreadSummary {
	q1, med, q3 := quartiles(values)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range values {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	s := spreadSummary{Median: med, Q1: q1, Q3: q3}
	if med != 0 {
		s.IQRShare = (q3 - q1) / math.Abs(med)
		s.RangeShare = (hi - lo) / math.Abs(med)
	}
	return s
}
