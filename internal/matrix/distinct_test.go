package matrix_test

// The batch entry points of the training kernels evaluate each distinct
// row once (matrix.Distinct) and scatter the result. This test pins that
// they stay bitwise equal to their single-row counterparts on input
// whose rows repeat, including rows that differ only in the sign of a
// zero.

import (
	"math"
	"testing"

	"polygraph/internal/iforest"
	"polygraph/internal/kmeans"
	"polygraph/internal/matrix"
	"polygraph/internal/pca"
	"polygraph/internal/rng"
)

// duplicateHeavy draws 600 rows from 14 prototypes; prototypes 12 and 13
// copy 0 and 1 with every zero negated.
func duplicateHeavy() *matrix.Dense {
	p := rng.New(21)
	protos := make([][]float64, 12, 14)
	for i := range protos {
		row := make([]float64, 5)
		for j := range row {
			if p.Intn(3) > 0 {
				row[j] = math.Round(4*p.NormFloat64()) / 4
			}
		}
		protos[i] = row
	}
	protos[0][1], protos[1][3] = 0, 0
	for _, src := range protos[:2] {
		row := append([]float64(nil), src...)
		for j, v := range row {
			if v == 0 {
				row[j] = math.Copysign(0, -1)
			}
		}
		protos = append(protos, row)
	}
	rows := make([][]float64, 600)
	for i := range rows {
		rows[i] = protos[p.Intn(len(protos))]
	}
	return matrix.FromRows(rows)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestBatchKernelsMatchSingleRowOnDuplicates(t *testing.T) {
	m := duplicateHeavy()
	r, _ := m.Dims()
	uniq, _ := matrix.Distinct(m)
	if u, _ := uniq.Dims(); u != 14 {
		t.Fatalf("fixture holds %d distinct rows, want 14 (signed zeros apart)", u)
	}

	forest, err := iforest.Fit(m, iforest.Config{Trees: 30, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	scores, err := forest.ScoreAll(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < r; i++ {
		if got := forest.Score(m.RawRow(i)); !sameBits(scores[i], got) {
			t.Fatalf("iforest row %d: ScoreAll %v, Score %v", i, scores[i], got)
		}
	}

	p, err := pca.Fit(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	proj, err := p.Transform(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < r; i++ {
		vec, err := p.TransformVec(m.RawRow(i))
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range vec {
			if got := proj.At(i, j); !sameBits(got, v) {
				t.Fatalf("pca row %d[%d]: Transform %v, TransformVec %v", i, j, got, v)
			}
		}
	}

	km, err := kmeans.Fit(m, kmeans.Config{K: 4, Seed: 3, Restarts: 2, PlusPlus: true})
	if err != nil {
		t.Fatal(err)
	}
	assign, err := km.PredictAll(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < r; i++ {
		if got := km.Predict(m.RawRow(i)); assign[i] != got {
			t.Fatalf("kmeans row %d: PredictAll %d, Predict %d", i, assign[i], got)
		}
	}
}
