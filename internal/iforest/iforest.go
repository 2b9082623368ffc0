// Package iforest implements Isolation Forest outlier detection (Liu,
// Ting & Zhou 2008), used in the Browser Polygraph pre-processing stage
// (paper §6.4.1) to drop anomalous fingerprints before clustering. The
// paper filters with a contamination threshold of 0.002%, eliminating 172
// of 205k rows.
package iforest

import (
	"context"
	"fmt"
	"math"
	"sort"

	"polygraph/internal/matrix"
	"polygraph/internal/parallel"
	"polygraph/internal/rng"
)

// Config controls forest construction.
type Config struct {
	// Trees is the ensemble size; 0 means the default of 100.
	Trees int
	// SampleSize is the sub-sample ψ per tree; 0 means min(256, n).
	SampleSize int
	// Seed drives deterministic construction.
	Seed uint64
	// Workers sizes the pool for tree construction and ScoreAll; 0 means
	// GOMAXPROCS, 1 forces serial. Every tree draws from its own PCG
	// stream split from Seed, so the forest is identical for every value.
	Workers int
}

// Forest is a fitted isolation forest.
type Forest struct {
	trees      []*node
	sampleSize int
	dim        int
	// workers is the pool size Config requested at fit time; ScoreAll and
	// FilterContamination reuse it (0 = GOMAXPROCS). Not serialized —
	// loaded forests default to the machine width.
	workers int

	// Flat structure-of-arrays mirror of trees, built once by finalize()
	// after Fit/Import so scoring walks contiguous slices instead of
	// chasing *node pointers. Node i is a leaf iff flatLeft[i] < 0;
	// internal nodes route x[flatFeature[i]] < flatThr[i] to
	// flatLeft/flatRight (absolute indices into the same arrays), and
	// leaves carry their c(size) path adjustment in flatAdj. flatRoots[t]
	// is tree t's root (trees are laid out preorder, back to back). norm
	// caches avgPathLength(sampleSize), hoisted out of the per-vector
	// Score formula. A hand-built Forest without these arrays still scores
	// through the pointer walk, bit-identically.
	flatFeature []int32
	flatThr     []float64
	flatLeft    []int32
	flatRight   []int32
	flatAdj     []float64
	flatRoots   []int32
	norm        float64
}

type node struct {
	// Internal nodes: split on feature < threshold.
	feature   int
	threshold float64
	left      *node
	right     *node
	// Leaves: size is the number of training points that reached here.
	size int
	leaf bool
}

// Fit builds a forest over the rows of m.
func Fit(m *matrix.Dense, cfg Config) (*Forest, error) {
	return FitContext(context.Background(), m, cfg)
}

// FitContext is Fit with cooperative cancellation: the serial sampling
// pass checks ctx once per tree and the parallel build checks it at
// every tree boundary, so cancellation aborts within one tree of work. A
// forest that finishes fitting is bit-identical to Fit's.
func FitContext(ctx context.Context, m *matrix.Dense, cfg Config) (*Forest, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n, d := m.Dims()
	if n == 0 || d == 0 {
		return nil, fmt.Errorf("iforest: empty input %dx%d", n, d)
	}
	trees := cfg.Trees
	if trees == 0 {
		trees = 100
	}
	psi := cfg.SampleSize
	if psi == 0 {
		psi = 256
	}
	if psi > n {
		psi = n
	}
	maxDepth := int(math.Ceil(math.Log2(float64(psi)))) + 1

	f := &Forest{sampleSize: psi, dim: d, trees: make([]*node, trees), workers: cfg.Workers}
	// Sampling walks one shared shuffle state across trees (tree t's ψ
	// rows depend on every earlier shuffle), so it runs serially up
	// front — O(trees·n) swaps, noise next to tree construction. Each
	// tree's PCG stream is then left exactly where buildTree expects it,
	// and the expensive part — building — fans out over the pool. The
	// forest is bit-identical for every worker count.
	base := rng.New(cfg.Seed)
	gens := make([]*rng.PCG, trees)
	samples := make([][]int32, trees)
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	for t := 0; t < trees; t++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		gen := base.Split(fmt.Sprintf("tree-%d", t))
		// Sample ψ rows without replacement: a full Fisher–Yates pass
		// drawing exactly what gen.Shuffle(n, swap) draws, inlined to
		// skip the per-swap closure call.
		for i := n - 1; i > 0; i-- {
			j := gen.Intn(i + 1)
			idx[i], idx[j] = idx[j], idx[i]
		}
		gens[t] = gen
		samples[t] = append([]int32(nil), idx[:psi]...)
	}
	if err := parallel.ForContext(ctx, cfg.Workers, trees, 1, func(start, end int) {
		for t := start; t < end; t++ {
			f.trees[t] = buildTree(m, samples[t], 0, maxDepth, gens[t])
		}
	}); err != nil {
		return nil, err
	}
	f.finalize()
	return f, nil
}

// finalize flattens the pointer trees into the structure-of-arrays
// layout and hoists the avgPathLength(sampleSize) normalization. Called
// once at the end of Fit and Import; scoring never mutates the arrays.
func (f *Forest) finalize() {
	total := 0
	for _, t := range f.trees {
		total += countNodes(t)
	}
	f.flatFeature = make([]int32, total)
	f.flatThr = make([]float64, total)
	f.flatLeft = make([]int32, total)
	f.flatRight = make([]int32, total)
	f.flatAdj = make([]float64, total)
	f.flatRoots = make([]int32, len(f.trees))
	next := 0
	for t, root := range f.trees {
		f.flatRoots[t] = int32(next)
		next = f.flatten(root, next)
	}
	f.norm = avgPathLength(f.sampleSize)
}

func countNodes(n *node) int {
	if n.leaf {
		return 1
	}
	return 1 + countNodes(n.left) + countNodes(n.right)
}

// flatten writes the subtree rooted at n starting at index at (preorder)
// and returns the next free index.
func (f *Forest) flatten(n *node, at int) int {
	idx := at
	at++
	if n.leaf {
		f.flatFeature[idx] = -1
		f.flatLeft[idx] = -1
		f.flatRight[idx] = -1
		f.flatAdj[idx] = avgPathLength(n.size)
		return at
	}
	f.flatFeature[idx] = int32(n.feature)
	f.flatThr[idx] = n.threshold
	l := at
	at = f.flatten(n.left, at)
	r := at
	at = f.flatten(n.right, at)
	f.flatLeft[idx] = int32(l)
	f.flatRight[idx] = int32(r)
	return at
}

func buildTree(m *matrix.Dense, sample []int32, depth, maxDepth int, gen *rng.PCG) *node {
	if depth >= maxDepth || len(sample) <= 1 {
		return &node{leaf: true, size: len(sample)}
	}
	_, d := m.Dims()
	// Pick a feature with spread; give up after a bounded number of
	// tries (all-constant subsample).
	for try := 0; try < d; try++ {
		feat := gen.Intn(d)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, i := range sample {
			v := m.At(int(i), feat)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if hi <= lo {
			continue
		}
		thr := lo + gen.Float64()*(hi-lo)
		var left, right []int32
		for _, i := range sample {
			if m.At(int(i), feat) < thr {
				left = append(left, i)
			} else {
				right = append(right, i)
			}
		}
		if len(left) == 0 || len(right) == 0 {
			continue
		}
		return &node{
			feature:   feat,
			threshold: thr,
			left:      buildTree(m, left, depth+1, maxDepth, gen),
			right:     buildTree(m, right, depth+1, maxDepth, gen),
		}
	}
	return &node{leaf: true, size: len(sample)}
}

// pathLength walks x down a tree, adding the standard c(size) adjustment
// at leaves holding more than one training point.
func pathLength(n *node, x []float64, depth float64) float64 {
	if n.leaf {
		return depth + avgPathLength(n.size)
	}
	if x[n.feature] < n.threshold {
		return pathLength(n.left, x, depth+1)
	}
	return pathLength(n.right, x, depth+1)
}

// avgPathLength is c(n), the average path length of an unsuccessful BST
// search among n points: 2·H(n−1) − 2(n−1)/n.
func avgPathLength(n int) float64 {
	if n <= 1 {
		return 0
	}
	h := math.Log(float64(n-1)) + 0.5772156649015329
	return 2*h - 2*float64(n-1)/float64(n)
}

// Score returns the anomaly score of x in [0, 1]; higher is more
// anomalous. Scores near 0.5 indicate unremarkable points.
func (f *Forest) Score(x []float64) float64 {
	if len(x) != f.dim {
		panic(fmt.Sprintf("iforest: score on %d-dim vector, fitted on %d", len(x), f.dim))
	}
	total := 0.0
	if f.flatRoots != nil {
		for t := range f.trees {
			total += f.pathLengthFlat(t, x)
		}
	} else {
		for _, t := range f.trees {
			total += pathLength(t, x, 0)
		}
	}
	mean := total / float64(len(f.trees))
	return math.Pow(2, -mean/f.normalization())
}

// normalization returns the hoisted avgPathLength(sampleSize), falling
// back to a live computation for hand-built forests that were never
// finalized.
func (f *Forest) normalization() float64 {
	if f.flatRoots != nil {
		return f.norm
	}
	return avgPathLength(f.sampleSize)
}

// pathLengthFlat is pathLength over the flat arrays: an iterative walk
// from tree t's root, counting edges and adding the leaf adjustment.
// Depth accrues by float64 increments of exactly 1, just like the
// recursive walk's depth+1 parameter, so the result is bit-identical.
func (f *Forest) pathLengthFlat(t int, x []float64) float64 {
	i := f.flatRoots[t]
	depth := 0.0
	for f.flatLeft[i] >= 0 {
		if x[f.flatFeature[i]] < f.flatThr[i] {
			i = f.flatLeft[i]
		} else {
			i = f.flatRight[i]
		}
		depth++
	}
	return depth + f.flatAdj[i]
}

// scoreCostNs estimates one row's scoring cost for adaptive dispatch:
// every tree walks ~log2(ψ)+1 nodes at a handful of ns per node.
func (f *Forest) scoreCostNs() float64 {
	depth := 1.0
	if f.sampleSize > 1 {
		depth = math.Log2(float64(f.sampleSize)) + 1
	}
	return 100 + 8*float64(len(f.trees))*depth
}

// ScoreAll scores every row of data over the worker pool sized at fit
// time (rows are independent, so pool size never changes the scores).
func (f *Forest) ScoreAll(data *matrix.Dense) ([]float64, error) {
	return f.ScoreAllWorkers(data, f.workers)
}

// ScoreAllWorkers is ScoreAll with an explicit pool size (0 = GOMAXPROCS,
// 1 = serial).
func (f *Forest) ScoreAllWorkers(data *matrix.Dense, workers int) ([]float64, error) {
	return f.ScoreAllContext(context.Background(), data, workers)
}

// ScoreAllContext is ScoreAllWorkers with cooperative cancellation at
// chunk boundaries; rows are independent, so a completed pass is
// identical for every pool size and context.
func (f *Forest) ScoreAllContext(ctx context.Context, data *matrix.Dense, workers int) ([]float64, error) {
	r, d := data.Dims()
	if d != f.dim {
		return nil, fmt.Errorf("iforest: score on %d-dim rows, fitted on %d", d, f.dim)
	}
	// A score is a pure function of the row, so each distinct row is
	// scored once and scattered to its copies, bit-identical to scoring
	// every row.
	uniq, of := matrix.Distinct(data)
	u, _ := uniq.Dims()
	scores := make([]float64, u)
	plan := parallel.PlanFor(workers, u, f.scoreCostNs())
	if err := parallel.ForContext(ctx, plan.Workers, u, plan.Chunk, func(start, end int) {
		f.scoreRows(uniq, scores, start, end)
	}); err != nil {
		return nil, err
	}
	out := make([]float64, r)
	for i, k := range of {
		out[i] = scores[k]
	}
	return out, nil
}

// scoreRows scores rows [start, end) into out. With the flat layout it
// traverses tree-by-tree across the whole chunk — the tree's arrays stay
// hot in cache while every row walks them — accumulating per-row path
// totals in tree order, which is exactly the summation order Score uses,
// so the batch is bit-identical to row-at-a-time scoring.
func (f *Forest) scoreRows(data *matrix.Dense, out []float64, start, end int) {
	if f.flatRoots == nil {
		for i := start; i < end; i++ {
			out[i] = f.Score(data.RawRow(i))
		}
		return
	}
	for i := start; i < end; i++ {
		out[i] = 0
	}
	for t := range f.trees {
		for i := start; i < end; i++ {
			out[i] += f.pathLengthFlat(t, data.RawRow(i))
		}
	}
	nTrees := float64(len(f.trees))
	for i := start; i < end; i++ {
		mean := out[i] / nTrees
		out[i] = math.Pow(2, -mean/f.norm)
	}
}

// FilterContamination returns the indices of rows to KEEP after removing
// the `contamination` fraction (0 ≤ c < 1) with the highest anomaly
// scores. The returned slice preserves the original row order. At least
// one row is always removed when contamination > 0 and n > 0, matching
// the intent of a strictly positive threshold like the paper's 0.002%.
func (f *Forest) FilterContamination(data *matrix.Dense, contamination float64) (keep, drop []int, err error) {
	return f.FilterContaminationContext(context.Background(), data, contamination)
}

// FilterContaminationContext is FilterContamination with cooperative
// cancellation during the scoring pass (the cut selection tail is cheap
// and runs to completion once scoring finishes).
func (f *Forest) FilterContaminationContext(ctx context.Context, data *matrix.Dense, contamination float64) (keep, drop []int, err error) {
	if contamination < 0 || contamination >= 1 {
		return nil, nil, fmt.Errorf("iforest: contamination %v out of [0,1)", contamination)
	}
	scores, err := f.ScoreAllContext(ctx, data, f.workers)
	if err != nil {
		return nil, nil, err
	}
	n := len(scores)
	if n == 0 || contamination == 0 {
		keep = make([]int, n)
		for i := range keep {
			keep[i] = i
		}
		return keep, nil, nil
	}
	nDrop := int(math.Round(contamination * float64(n)))
	if nDrop == 0 {
		nDrop = 1
	}
	keep, drop = cutTop(scores, nDrop)
	return keep, drop, nil
}

// cutTop splits row indices into the nDrop with the highest scores and
// the rest, both in row order. The cut is the nDrop-th largest score:
// every row above it drops, and rows tied at it drop in index order
// until nDrop rows are gone — the sets a full sort by (score desc,
// index asc) selects, without sorting n rows with their indices.
func cutTop(scores []float64, nDrop int) (keep, drop []int) {
	n := len(scores)
	sorted := append([]float64(nil), scores...)
	sort.Float64s(sorted)
	cut := sorted[n-nDrop]
	ties := nDrop
	for _, s := range sorted[n-nDrop:] {
		if s > cut {
			ties--
		}
	}
	drop = make([]int, 0, nDrop)
	keep = make([]int, 0, n-nDrop)
	for i, s := range scores {
		switch {
		case s > cut:
			drop = append(drop, i)
		case ties > 0 && !(s < cut): // tied, or the NaN of a one-row forest
			ties--
			drop = append(drop, i)
		default:
			keep = append(keep, i)
		}
	}
	return keep, drop
}
