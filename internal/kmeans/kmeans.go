// Package kmeans implements the clustering algorithm at the heart of
// Browser Polygraph (paper §6.4.3): Lloyd's k-means with k-means++
// initialization, plus the Within-Cluster Sum of Squares (WCSS) tooling
// used to choose k via the elbow method (Figure 3) and the relative-WCSS
// curve (Figure 4) that pinpoints k = 11 in the paper.
package kmeans

import (
	"context"
	"fmt"
	"math"

	"polygraph/internal/matrix"
	"polygraph/internal/parallel"
	"polygraph/internal/rng"
)

// Config controls training.
type Config struct {
	// K is the number of clusters; required, ≥ 1.
	K int
	// MaxIter bounds Lloyd iterations; 0 means the default (300).
	MaxIter int
	// Tol stops iteration when total centroid movement (squared) falls
	// below it; 0 means the default (1e-8).
	Tol float64
	// Seed drives the deterministic k-means++ initialization.
	Seed uint64
	// Restarts runs the whole fit multiple times with derived seeds and
	// keeps the lowest-WCSS model; 0 means 1 run.
	Restarts int
	// PlusPlus selects k-means++ seeding (true) or uniform random
	// centroid choice (false). The paper does not name its init; we use
	// ++ by default and ablate the difference in EXPERIMENTS.md.
	PlusPlus bool
	// Workers sizes the worker pool for the assignment and update steps;
	// 0 means GOMAXPROCS, 1 forces the serial path. Results are
	// bit-identical for every value (see internal/parallel).
	Workers int
}

// Model is a fitted k-means clustering.
type Model struct {
	// Centroids is a K×d matrix of cluster centers.
	Centroids *matrix.Dense
	// WCSS is the within-cluster sum of squared distances at
	// convergence.
	WCSS float64
	// Iterations is the number of Lloyd steps the winning restart used.
	Iterations int
	// K and Dim record the model shape.
	K, Dim int
}

// Fit clusters the rows of m. It returns an error for degenerate input
// (fewer rows than clusters, K < 1, empty matrix).
func Fit(m *matrix.Dense, cfg Config) (*Model, error) {
	return FitContext(context.Background(), m, cfg)
}

// FitContext is Fit with cooperative cancellation: the seeding fan-outs,
// every Lloyd assignment/update step, and the restart loop all check ctx
// at chunk boundaries, so cancellation mid-iteration aborts within one
// chunk of work. A fit that runs to completion is bit-identical to
// Fit's — cancellation checks never change chunk geometry or reduction
// order.
//
// Distances are pure functions of a row, so every per-row distance —
// k-means++ D² refreshes, Lloyd assignments, the empty-cluster reseed
// and the final inertia — is computed once per distinct row
// (matrix.Distinct, shared by all restarts) and read back through the
// row's index. The order-sensitive sums — centroid updates, the D²
// sampling scan, the inertia — still visit every row in row order, so
// the model is bit-identical to a per-row fit.
func FitContext(ctx context.Context, m *matrix.Dense, cfg Config) (*Model, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	r, d := m.Dims()
	if cfg.K < 1 {
		return nil, fmt.Errorf("kmeans: K=%d < 1", cfg.K)
	}
	if r == 0 || d == 0 {
		return nil, fmt.Errorf("kmeans: empty input %dx%d", r, d)
	}
	if r < cfg.K {
		return nil, fmt.Errorf("kmeans: %d rows < K=%d", r, cfg.K)
	}
	maxIter := cfg.MaxIter
	if maxIter == 0 {
		maxIter = 300
	}
	tol := cfg.Tol
	if tol == 0 {
		tol = 1e-8
	}
	restarts := cfg.Restarts
	if restarts <= 0 {
		restarts = 1
	}

	uniq, of := matrix.Distinct(m)
	var best *Model
	for attempt := 0; attempt < restarts; attempt++ {
		gen := rng.New(cfg.Seed).Split(fmt.Sprintf("restart-%d", attempt))
		model, err := fitOnce(ctx, m, uniq, of, cfg.K, maxIter, tol, cfg.PlusPlus, cfg.Workers, gen)
		if err != nil {
			return nil, err
		}
		if best == nil || model.WCSS < best.WCSS {
			best = model
		}
	}
	return best, nil
}

// partial is one chunk's contribution to the centroid update: per-cluster
// row counts and feature sums. Chunks cover fixed index ranges and merge
// in ascending chunk order, so the reduced sums are bit-identical for
// every worker count.
type partial struct {
	counts []int
	sums   *matrix.Dense
}

// fitOnce runs one seeded fit of m; uniq and of are matrix.Distinct(m).
func fitOnce(ctx context.Context, m, uniq *matrix.Dense, of []int32, k, maxIter int, tol float64, plusPlus bool, workers int, gen *rng.PCG) (*Model, error) {
	r, d := m.Dims()
	u, _ := uniq.Dims()
	cents := matrix.NewDense(k, d)
	if plusPlus {
		if err := seedPlusPlus(ctx, m, uniq, of, cents, workers, gen); err != nil {
			return nil, err
		}
	} else {
		seedUniform(m, cents, gen)
	}

	assign := make([]int, u) // by distinct row
	iter := 0
	for ; iter < maxIter; iter++ {
		// Assignment step: each distinct row is independent, so the
		// fan-out is a pure map.
		if err := parallel.ForContext(ctx, workers, u, 0, func(start, end int) {
			for i := start; i < end; i++ {
				assign[i] = nearestCentroid(uniq.RawRow(i), cents)
			}
		}); err != nil {
			return nil, err
		}
		// Update step: per-chunk partial sums, merged in fixed chunk
		// order.
		acc, err := parallel.MapReduceContext(ctx, workers, r, 0,
			func() *partial { return &partial{counts: make([]int, k), sums: matrix.NewDense(k, d)} },
			func(p *partial, start, end int) *partial {
				for i := start; i < end; i++ {
					c := assign[of[i]]
					p.counts[c]++
					srow := p.sums.RawRow(c)
					for j, v := range m.RawRow(i) {
						srow[j] += v
					}
				}
				return p
			},
			func(into, from *partial) *partial {
				for c := 0; c < k; c++ {
					into.counts[c] += from.counts[c]
					irow := into.sums.RawRow(c)
					for j, v := range from.sums.RawRow(c) {
						irow[j] += v
					}
				}
				return into
			},
		)
		if err != nil {
			return nil, err
		}
		counts, sums := acc.counts, acc.sums
		moved := 0.0
		for c := 0; c < k; c++ {
			crow := cents.RawRow(c)
			if counts[c] == 0 {
				// Empty cluster: reseed at the point farthest
				// from its centroid, the standard fix that
				// keeps K stable.
				far := farthestPoint(uniq, cents)
				copy(crow, uniq.RawRow(far))
				moved += math.Inf(1)
				continue
			}
			inv := 1 / float64(counts[c])
			srow := sums.RawRow(c)
			for j := range crow {
				nv := srow[j] * inv
				dv := nv - crow[j]
				moved += dv * dv
				crow[j] = nv
			}
		}
		if moved <= tol {
			iter++
			break
		}
	}

	model := &Model{Centroids: cents, K: k, Dim: d, Iterations: iter}
	wcss, err := model.inertiaContext(ctx, uniq, of, workers)
	if err != nil {
		return nil, err
	}
	model.WCSS = wcss
	return model, nil
}

// seedUniform picks K distinct random rows as initial centroids.
func seedUniform(m *matrix.Dense, cents *matrix.Dense, gen *rng.PCG) {
	r, _ := m.Dims()
	k, _ := cents.Dims()
	perm := gen.Perm(r)
	for c := 0; c < k; c++ {
		copy(cents.RawRow(c), m.RawRow(perm[c]))
	}
}

// seedPlusPlus implements k-means++ (Arthur & Vassilvitskii 2007):
// subsequent centroids are sampled proportional to squared distance from
// the nearest already-chosen centroid. The distance refresh after each
// pick is a pure map over the distinct rows and fans out over the pool;
// the cumulative sampling scan stays serial, over every row in order,
// because it is inherently ordered.
func seedPlusPlus(ctx context.Context, m, uniq *matrix.Dense, of []int32, cents *matrix.Dense, workers int, gen *rng.PCG) error {
	r, _ := m.Dims()
	u, _ := uniq.Dims()
	k, _ := cents.Dims()
	copy(cents.RawRow(0), m.RawRow(gen.Intn(r)))
	d2 := make([]float64, u) // by distinct row
	if err := parallel.ForContext(ctx, workers, u, 0, func(start, end int) {
		for i := start; i < end; i++ {
			d2[i] = sqDist(uniq.RawRow(i), cents.RawRow(0))
		}
	}); err != nil {
		return err
	}
	for c := 1; c < k; c++ {
		total := 0.0
		for _, x := range of {
			total += d2[x]
		}
		var idx int
		if total <= 0 {
			// All points coincide with chosen centroids; any row
			// works.
			idx = gen.Intn(r)
		} else {
			target := gen.Float64() * total
			acc := 0.0
			idx = r - 1
			for i, x := range of {
				acc += d2[x]
				if acc >= target {
					idx = i
					break
				}
			}
		}
		copy(cents.RawRow(c), m.RawRow(idx))
		crow := cents.RawRow(c)
		if err := parallel.ForContext(ctx, workers, u, 0, func(start, end int) {
			for i := start; i < end; i++ {
				if nd := sqDist(uniq.RawRow(i), crow); nd < d2[i] {
					d2[i] = nd
				}
			}
		}); err != nil {
			return err
		}
	}
	return nil
}

// farthestPoint returns the first row farthest from its nearest
// centroid. Duplicates never beat their first copy under the strict >,
// so over the distinct rows of a matrix it picks the same values as over
// all of them.
func farthestPoint(m *matrix.Dense, cents *matrix.Dense) int {
	r, _ := m.Dims()
	worstIdx, worstD := 0, -1.0
	for i := 0; i < r; i++ {
		c := nearestCentroid(m.RawRow(i), cents)
		d := sqDist(m.RawRow(i), cents.RawRow(c))
		if d > worstD {
			worstD = d
			worstIdx = i
		}
	}
	return worstIdx
}

func nearestCentroid(x []float64, cents *matrix.Dense) int {
	k, _ := cents.Dims()
	best, bestD := 0, math.Inf(1)
	for c := 0; c < k; c++ {
		if d := sqDist(x, cents.RawRow(c)); d < bestD {
			bestD = d
			best = c
		}
	}
	return best
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i, av := range a {
		d := av - b[i]
		s += d * d
	}
	return s
}

// Predict returns the nearest-centroid cluster for x. It panics if the
// vector width differs from the fitted dimension (programming error on the
// hot path; validated input should be checked by callers).
func (m *Model) Predict(x []float64) int {
	if len(x) != m.Dim {
		panic(fmt.Sprintf("kmeans: predict on %d-dim vector, model is %d-dim", len(x), m.Dim))
	}
	return nearestCentroid(x, m.Centroids)
}

// AssignDistance returns the nearest-centroid cluster for x and the
// Euclidean distance to that centroid, in a single pass over the
// centroids. It is the in-place (allocation-free) equivalent of calling
// Predict followed by Distance, with bit-identical results — the
// distance to the argmin centroid is the same squared sum either way —
// at half the arithmetic. Like Predict, it panics on a width mismatch.
func (m *Model) AssignDistance(x []float64) (int, float64) {
	if len(x) != m.Dim {
		panic(fmt.Sprintf("kmeans: predict on %d-dim vector, model is %d-dim", len(x), m.Dim))
	}
	best, bestD := 0, math.Inf(1)
	for c := 0; c < m.K; c++ {
		if d := sqDist(x, m.Centroids.RawRow(c)); d < bestD {
			bestD = d
			best = c
		}
	}
	return best, math.Sqrt(bestD)
}

// predictCostNs estimates one nearest-centroid assignment's cost for
// adaptive dispatch (~2 ns per centroid coordinate, plus loop overhead).
func (m *Model) predictCostNs() float64 {
	return 40 + 2*float64(m.K*m.Dim)
}

// PredictAll returns cluster assignments for every row of data, fanning
// the rows out over the worker pool (each row is independent, so the
// result is identical for every pool size).
func (m *Model) PredictAll(data *matrix.Dense) ([]int, error) {
	return m.PredictAllWorkers(data, 0)
}

// PredictAllWorkers is PredictAll with an explicit pool size (0 =
// GOMAXPROCS, 1 = serial).
func (m *Model) PredictAllWorkers(data *matrix.Dense, workers int) ([]int, error) {
	return m.PredictAllContext(context.Background(), data, workers)
}

// PredictAllContext is PredictAllWorkers with cooperative cancellation
// at chunk boundaries.
func (m *Model) PredictAllContext(ctx context.Context, data *matrix.Dense, workers int) ([]int, error) {
	r, d := data.Dims()
	if d != m.Dim {
		return nil, fmt.Errorf("kmeans: predict on %d-dim rows, model is %d-dim", d, m.Dim)
	}
	// Each distinct row is assigned once and scattered to its copies.
	uniq, of := matrix.Distinct(data)
	u, _ := uniq.Dims()
	assign := make([]int, u)
	plan := parallel.PlanFor(workers, u, m.predictCostNs())
	if err := parallel.ForContext(ctx, plan.Workers, u, plan.Chunk, func(start, end int) {
		for i := start; i < end; i++ {
			assign[i] = nearestCentroid(uniq.RawRow(i), m.Centroids)
		}
	}); err != nil {
		return nil, err
	}
	out := make([]int, r)
	for i, k := range of {
		out[i] = assign[k]
	}
	return out, nil
}

// Distance returns the Euclidean distance from x to centroid c.
func (m *Model) Distance(x []float64, c int) float64 {
	if c < 0 || c >= m.K {
		panic(fmt.Sprintf("kmeans: centroid %d out of %d", c, m.K))
	}
	return math.Sqrt(sqDist(x, m.Centroids.RawRow(c)))
}

// Inertia computes the WCSS of data under the model's centroids.
func (m *Model) Inertia(data *matrix.Dense) float64 {
	uniq, of := matrix.Distinct(data)
	wcss, _ := m.inertiaContext(context.Background(), uniq, of, 0)
	return wcss
}

// inertiaContext measures each distinct row's squared distance once,
// then reduces per-chunk WCSS partials over every row in fixed chunk
// order, so the value is bit-identical for every worker count; ctx
// cancels at chunk boundaries.
func (m *Model) inertiaContext(ctx context.Context, uniq *matrix.Dense, of []int32, workers int) (float64, error) {
	u, _ := uniq.Dims()
	dist := make([]float64, u)
	if err := parallel.ForContext(ctx, workers, u, 0, func(start, end int) {
		for i := start; i < end; i++ {
			row := uniq.RawRow(i)
			dist[i] = sqDist(row, m.Centroids.RawRow(nearestCentroid(row, m.Centroids)))
		}
	}); err != nil {
		return 0, err
	}
	return parallel.MapReduceContext(ctx, workers, len(of), 0,
		func() float64 { return 0 },
		func(total float64, start, end int) float64 {
			for _, x := range of[start:end] {
				total += dist[x]
			}
			return total
		},
		func(into, from float64) float64 { return into + from },
	)
}

// ElbowPoint is one (k, WCSS) sample of the elbow curve.
type ElbowPoint struct {
	K    int
	WCSS float64
}

// ElbowCurve fits a model for every k in [kMin, kMax] and returns the
// WCSS curve of the paper's Figure 3. Fits reuse cfg except for K.
func ElbowCurve(m *matrix.Dense, kMin, kMax int, cfg Config) ([]ElbowPoint, error) {
	if kMin < 1 || kMax < kMin {
		return nil, fmt.Errorf("kmeans: bad elbow range [%d,%d]", kMin, kMax)
	}
	out := make([]ElbowPoint, 0, kMax-kMin+1)
	for k := kMin; k <= kMax; k++ {
		c := cfg
		c.K = k
		model, err := Fit(m, c)
		if err != nil {
			return nil, fmt.Errorf("kmeans: elbow at k=%d: %w", k, err)
		}
		out = append(out, ElbowPoint{K: k, WCSS: model.WCSS})
	}
	return out, nil
}

// RelativeWCSS transforms an elbow curve into the paper's Figure 4 series:
// for each k > kMin, the fractional WCSS drop achieved by moving from k-1
// to k clusters, (WCSS(k-1) − WCSS(k)) / WCSS(k-1). A pronounced spike
// marks a k that buys an outsized improvement — k = 11 in the paper.
func RelativeWCSS(curve []ElbowPoint) []ElbowPoint {
	if len(curve) < 2 {
		return nil
	}
	out := make([]ElbowPoint, 0, len(curve)-1)
	for i := 1; i < len(curve); i++ {
		prev := curve[i-1].WCSS
		drop := 0.0
		if prev > 0 {
			drop = (prev - curve[i].WCSS) / prev
		}
		out = append(out, ElbowPoint{K: curve[i].K, WCSS: drop})
	}
	return out
}

// BestRelativeK returns the k with the largest relative WCSS drop,
// ignoring candidates below kFloor (tiny k always has huge drops).
func BestRelativeK(curve []ElbowPoint, kFloor int) int {
	rel := RelativeWCSS(curve)
	bestK, bestV := 0, -1.0
	for _, p := range rel {
		if p.K < kFloor {
			continue
		}
		if p.WCSS > bestV {
			bestV = p.WCSS
			bestK = p.K
		}
	}
	return bestK
}
