package iforest

import (
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"testing"

	"polygraph/internal/matrix"
	"polygraph/internal/rng"
)

// clusterWithOutliers builds n inlier points near the origin plus a few
// far-away outliers, returning the matrix and the outlier row indices.
func clusterWithOutliers(n, outliers int, seed uint64) (*matrix.Dense, map[int]bool) {
	p := rng.New(seed)
	rows := make([][]float64, 0, n+outliers)
	for i := 0; i < n; i++ {
		rows = append(rows, []float64{p.NormFloat64(), p.NormFloat64()})
	}
	outlierIdx := map[int]bool{}
	for i := 0; i < outliers; i++ {
		rows = append(rows, []float64{100 + p.NormFloat64(), -100 + p.NormFloat64()})
		outlierIdx[n+i] = true
	}
	return matrix.FromRows(rows), outlierIdx
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(matrix.NewDense(0, 2), Config{}); err == nil {
		t.Fatal("expected error for empty input")
	}
}

func TestOutliersScoreHigher(t *testing.T) {
	m, outliers := clusterWithOutliers(500, 5, 1)
	f, err := Fit(m, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	scores, err := f.ScoreAll(m)
	if err != nil {
		t.Fatal(err)
	}
	var inMax, outMin float64 = 0, 1
	for i, s := range scores {
		if outliers[i] {
			if s < outMin {
				outMin = s
			}
		} else if s > inMax {
			inMax = s
		}
	}
	if outMin <= inMax {
		t.Fatalf("outlier min score %v <= inlier max score %v", outMin, inMax)
	}
}

func TestScoreRange(t *testing.T) {
	m, _ := clusterWithOutliers(300, 3, 2)
	f, err := Fit(m, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	scores, _ := f.ScoreAll(m)
	for i, s := range scores {
		if s < 0 || s > 1 {
			t.Fatalf("score[%d] = %v out of [0,1]", i, s)
		}
	}
}

func TestDeterminism(t *testing.T) {
	m, _ := clusterWithOutliers(200, 2, 3)
	a, err := Fit(m, Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fit(m, Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	sa, _ := a.ScoreAll(m)
	sb, _ := b.ScoreAll(m)
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("same seed produced different score at %d", i)
		}
	}
}

func TestScorePanicsOnBadDim(t *testing.T) {
	m, _ := clusterWithOutliers(100, 1, 4)
	f, _ := Fit(m, Config{Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for wrong-width score")
		}
	}()
	f.Score([]float64{1, 2, 3})
}

func TestScoreAllDimError(t *testing.T) {
	m, _ := clusterWithOutliers(100, 1, 5)
	f, _ := Fit(m, Config{Seed: 1})
	if _, err := f.ScoreAll(matrix.NewDense(3, 5)); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestFilterContaminationDropsOutliers(t *testing.T) {
	m, outliers := clusterWithOutliers(1000, 4, 6)
	f, err := Fit(m, Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	keep, drop, err := f.FilterContamination(m, 4.0/1004.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(drop) != 4 {
		t.Fatalf("dropped %d rows, want 4", len(drop))
	}
	for _, d := range drop {
		if !outliers[d] {
			t.Fatalf("dropped inlier row %d", d)
		}
	}
	if len(keep)+len(drop) != 1004 {
		t.Fatalf("keep+drop = %d", len(keep)+len(drop))
	}
	// Keep preserves original order.
	for i := 1; i < len(keep); i++ {
		if keep[i] <= keep[i-1] {
			t.Fatal("keep indices not in order")
		}
	}
}

func TestFilterContaminationZero(t *testing.T) {
	m, _ := clusterWithOutliers(50, 1, 7)
	f, _ := Fit(m, Config{Seed: 1})
	keep, drop, err := f.FilterContamination(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(drop) != 0 || len(keep) != 51 {
		t.Fatalf("keep=%d drop=%d", len(keep), len(drop))
	}
}

func TestFilterContaminationTinyThresholdDropsAtLeastOne(t *testing.T) {
	// The paper's threshold is 0.002%; on 205k rows that's a handful,
	// but on small data a naive round would drop zero. We guarantee ≥1.
	m, _ := clusterWithOutliers(100, 1, 8)
	f, _ := Fit(m, Config{Seed: 1})
	_, drop, err := f.FilterContamination(m, 0.00002)
	if err != nil {
		t.Fatal(err)
	}
	if len(drop) != 1 {
		t.Fatalf("dropped %d, want exactly 1", len(drop))
	}
}

// sortCut is the reference selection cutTop must reproduce: sort every
// row by (score desc, index asc), drop the first nDrop, return both sets
// in row order.
func sortCut(scores []float64, nDrop int) (keep, drop []int) {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if scores[idx[a]] != scores[idx[b]] {
			return scores[idx[a]] > scores[idx[b]]
		}
		return idx[a] < idx[b]
	})
	dropSet := map[int]bool{}
	for _, i := range idx[:nDrop] {
		dropSet[i] = true
	}
	keep, drop = []int{}, []int{}
	for i := range scores {
		if dropSet[i] {
			drop = append(drop, i)
		} else {
			keep = append(keep, i)
		}
	}
	return keep, drop
}

func TestCutTopMatchesSort(t *testing.T) {
	p := rng.New(11)
	random := make([]float64, 300)
	for i := range random {
		// Few distinct values, so ties at the cut are the rule.
		random[i] = float64(p.Intn(7)) / 8
	}
	cases := []struct {
		name   string
		scores []float64
		nDrop  int
	}{
		{"distinct", []float64{0.5, 0.9, 0.1, 0.7, 0.3}, 2},
		{"tie at cut, first copies drop", []float64{0.6, 0.8, 0.6, 0.2, 0.6}, 2},
		{"tie at cut, all copies drop", []float64{0.6, 0.8, 0.6, 0.2}, 3},
		{"tie spans the cut from above", []float64{0.9, 0.4, 0.9, 0.9, 0.1}, 2},
		{"all equal", []float64{0.5, 0.5, 0.5, 0.5}, 3},
		{"drop everything", []float64{0.3, 0.1, 0.2}, 3},
		{"single row", []float64{0.7}, 1},
		{"random with ties", random, 40},
		{"random, one row", random, 1},
	}
	for _, tc := range cases {
		keep, drop := cutTop(tc.scores, tc.nDrop)
		wantKeep, wantDrop := sortCut(tc.scores, tc.nDrop)
		if !reflect.DeepEqual(keep, wantKeep) || !reflect.DeepEqual(drop, wantDrop) {
			t.Errorf("%s: keep %v drop %v, want keep %v drop %v", tc.name, keep, drop, wantKeep, wantDrop)
		}
	}
}

func TestFilterContaminationOneRow(t *testing.T) {
	// A one-row forest scores its row NaN (c(1) = 0 normalizes it);
	// a positive contamination must still drop that row.
	m := matrix.FromRows([][]float64{{1, 2}})
	f, err := Fit(m, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	keep, drop, err := f.FilterContamination(m, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(keep) != 0 || !reflect.DeepEqual(drop, []int{0}) {
		t.Fatalf("keep %v drop %v, want keep [] drop [0]", keep, drop)
	}
}

func TestFilterContaminationBadRange(t *testing.T) {
	m, _ := clusterWithOutliers(50, 1, 9)
	f, _ := Fit(m, Config{Seed: 1})
	if _, _, err := f.FilterContamination(m, -0.1); err == nil {
		t.Fatal("expected error for negative contamination")
	}
	if _, _, err := f.FilterContamination(m, 1.0); err == nil {
		t.Fatal("expected error for contamination = 1")
	}
}

func TestConstantDataDoesNotHang(t *testing.T) {
	rows := make([][]float64, 100)
	for i := range rows {
		rows[i] = []float64{5, 5, 5}
	}
	m := matrix.FromRows(rows)
	f, err := Fit(m, Config{Seed: 1, Trees: 10})
	if err != nil {
		t.Fatal(err)
	}
	s := f.Score([]float64{5, 5, 5})
	if s < 0 || s > 1 {
		t.Fatalf("score on constant data = %v", s)
	}
}

func TestAvgPathLength(t *testing.T) {
	if avgPathLength(0) != 0 || avgPathLength(1) != 0 {
		t.Fatal("c(n) for n<=1 should be 0")
	}
	// c(2) = 2·H(1) − 2·(1/2) = 2·(ln1+γ) − 1 ≈ 0.1544.
	got := avgPathLength(2)
	if got < 0.15 || got > 0.16 {
		t.Fatalf("c(2) = %v", got)
	}
	if avgPathLength(100) <= avgPathLength(10) {
		t.Fatal("c(n) must grow with n")
	}
}

func TestSmallSampleSize(t *testing.T) {
	m, _ := clusterWithOutliers(10, 1, 10)
	f, err := Fit(m, Config{Seed: 1, SampleSize: 4, Trees: 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ScoreAll(m); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScore(b *testing.B) {
	m, _ := clusterWithOutliers(2000, 10, 11)
	f, err := Fit(m, Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	x := m.Row(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Score(x)
	}
}

func BenchmarkFit2000(b *testing.B) {
	m, _ := clusterWithOutliers(2000, 10, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(m, Config{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestExportImportRoundtrip(t *testing.T) {
	m, _ := clusterWithOutliers(500, 5, 13)
	f, err := Fit(m, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	dump := f.Export()
	back, err := Import(dump)
	if err != nil {
		t.Fatal(err)
	}
	if back.Dim() != f.Dim() {
		t.Fatal("dim lost")
	}
	orig, _ := f.ScoreAll(m)
	rt, _ := back.ScoreAll(m)
	for i := range orig {
		if orig[i] != rt[i] {
			t.Fatalf("score %d differs after roundtrip: %v vs %v", i, orig[i], rt[i])
		}
	}
}

func TestImportRejectsCorruptDumps(t *testing.T) {
	m, _ := clusterWithOutliers(100, 2, 14)
	f, _ := Fit(m, Config{Seed: 1, Trees: 4})
	good := f.Export()

	cases := []func(*Dump){
		func(d *Dump) { d.SampleSize = 0 },
		func(d *Dump) { d.Dim = 0 },
		func(d *Dump) { d.Trees = nil },
		func(d *Dump) { d.Trees[0] = nil },
		func(d *Dump) { d.Trees[0][0].Left = 9999 },
		func(d *Dump) { d.Trees[0][0].Left = 0 }, // cycle
		func(d *Dump) {
			if d.Trees[0][0].Left != -1 {
				d.Trees[0][0].Feature = 99 // out-of-range split
			} else {
				d.Trees[0][0].Size = -1
			}
		},
	}
	for i, corrupt := range cases {
		// Fresh dump each time; corruption is destructive.
		d := f.Export()
		corrupt(d)
		if _, err := Import(d); err == nil {
			t.Fatalf("case %d: corrupted dump accepted", i)
		}
	}
	if _, err := Import(nil); err == nil {
		t.Fatal("nil dump accepted")
	}
	// The pristine dump still imports.
	if _, err := Import(good); err != nil {
		t.Fatal(err)
	}
}

func TestExportJSONStable(t *testing.T) {
	m, _ := clusterWithOutliers(100, 1, 15)
	f, _ := Fit(m, Config{Seed: 3, Trees: 8})
	a, err := json.Marshal(f.Export())
	if err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(f.Export())
	if string(a) != string(b) {
		t.Fatal("export not deterministic")
	}
	var d Dump
	if err := json.Unmarshal(a, &d); err != nil {
		t.Fatal(err)
	}
	if _, err := Import(&d); err != nil {
		t.Fatal(err)
	}
}

func TestFlatTraversalMatchesPointerWalk(t *testing.T) {
	data, _ := clusterWithOutliers(300, 12, 21)
	f, err := Fit(data, Config{Trees: 50, SampleSize: 64, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if f.flatRoots == nil {
		t.Fatal("Fit did not finalize the flat layout")
	}
	// Score walks the flat arrays; recompute each score through the
	// recursive pointer walk and demand bit equality — flattening is a
	// layout change, not an arithmetic change.
	r, _ := data.Dims()
	for i := 0; i < r; i++ {
		x := data.RawRow(i)
		total := 0.0
		for _, tr := range f.trees {
			total += pathLength(tr, x, 0)
		}
		want := math.Pow(2, -(total/float64(len(f.trees)))/avgPathLength(f.sampleSize))
		if got := f.Score(x); got != want {
			t.Fatalf("row %d: flat score %v, pointer walk %v", i, got, want)
		}
	}
}

func TestScoreAllMatchesPerRowScore(t *testing.T) {
	data, _ := clusterWithOutliers(400, 20, 5)
	f, err := Fit(data, Config{Trees: 40, SampleSize: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := f.ScoreAll(data)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := data.Dims()
	for i := 0; i < r; i++ {
		if got := f.Score(data.RawRow(i)); batch[i] != got {
			t.Fatalf("row %d: batch %v, single %v", i, batch[i], got)
		}
	}
}

func TestNormalizationHoisted(t *testing.T) {
	data, _ := clusterWithOutliers(200, 8, 7)
	f, err := Fit(data, Config{Trees: 20, SampleSize: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := avgPathLength(f.sampleSize); f.norm != want {
		t.Fatalf("hoisted norm %v, want avgPathLength(%d) = %v", f.norm, f.sampleSize, want)
	}
	// A hand-built forest with no flat layout still normalizes live.
	bare := &Forest{sampleSize: f.sampleSize}
	if bare.normalization() != avgPathLength(f.sampleSize) {
		t.Fatal("fallback normalization diverged")
	}
}

func TestImportFinalizesFlatLayout(t *testing.T) {
	data, _ := clusterWithOutliers(200, 8, 13)
	f, err := Fit(data, Config{Trees: 25, SampleSize: 32, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	back, err := Import(f.Export())
	if err != nil {
		t.Fatal(err)
	}
	if back.flatRoots == nil {
		t.Fatal("Import did not finalize the flat layout")
	}
	r, _ := data.Dims()
	for i := 0; i < r; i++ {
		x := data.RawRow(i)
		if f.Score(x) != back.Score(x) {
			t.Fatalf("row %d: imported forest diverged", i)
		}
	}
}
