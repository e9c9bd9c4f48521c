package main

import (
	"math"

	ca3dmm "repro"
	"repro/internal/mat"
)

// checker decides whether a product is correct without calling the
// program: a sample of rows is compared element by element with plain
// dot products, and the whole matrix is compared with the reference
// through random ±1 projections, C·x against A·(B·x). (The library's
// GemmRef on the full 1024^3 product takes 15 s here, which no run
// can afford.) A product that passed is kept, so later products of the
// same algorithm are usually accepted by comparing bits.
type checker struct {
	a, b  *ca3dmm.Matrix
	rows  []int       // sampled rows of C
	exact [][]float64 // their reference values
	xs    [][]float64 // projection vectors
	abx   [][]float64 // A·(B·x) for each
	good  map[ca3dmm.Algorithm]*ca3dmm.Matrix
}

const (
	// tol is the largest distance from the reference an element of a
	// sampled row may have; a projected row sum may be off by tol per
	// term summed.
	tol         = 1e-9
	sampledRows = 32
	projections = 4
)

func newChecker(a, b *ca3dmm.Matrix, seed uint64) *checker {
	m, k, n := a.Rows, a.Cols, b.Cols
	ck := &checker{a: a, b: b, good: map[ca3dmm.Algorithm]*ca3dmm.Matrix{}}
	rng := mat.NewRNG(seed)
	for len(ck.rows) < min(m, sampledRows) {
		i := int(rng.Uint64() % uint64(m))
		row := make([]float64, n)
		for l := 0; l < k; l++ {
			ail := a.At(i, l)
			for j := range row {
				row[j] += ail * b.At(l, j)
			}
		}
		ck.rows = append(ck.rows, i)
		ck.exact = append(ck.exact, row)
	}
	for t := 0; t < projections; t++ {
		x := make([]float64, n)
		for j := range x {
			x[j] = float64(rng.Uint64()&1)*2 - 1
		}
		ck.xs = append(ck.xs, x)
		ck.abx = append(ck.abx, matVec(a, matVec(b, x)))
	}
	return ck
}

func matVec(m *ca3dmm.Matrix, x []float64) []float64 {
	out := make([]float64, m.Rows)
	for i := range out {
		row := m.Data[i*m.Stride : i*m.Stride+m.Cols]
		for j, v := range row {
			out[i] += v * x[j]
		}
	}
	return out
}

func (ck *checker) ok(alg ca3dmm.Algorithm, c *ca3dmm.Matrix) bool {
	if g := ck.good[alg]; g != nil && sameBits(c, g) {
		return true
	}
	if c.Rows != ck.a.Rows || c.Cols != ck.b.Cols {
		return false
	}
	for r, i := range ck.rows {
		for j, want := range ck.exact[r] {
			if !(math.Abs(c.At(i, j)-want) <= tol) {
				return false
			}
		}
	}
	bound := tol * float64(ck.a.Cols+ck.b.Cols)
	for t, x := range ck.xs {
		for i, got := range matVec(c, x) {
			if !(math.Abs(got-ck.abx[t][i]) <= bound) {
				return false
			}
		}
	}
	ck.good[alg] = c
	return true
}

func sameBits(a, b *ca3dmm.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		ra := a.Data[i*a.Stride : i*a.Stride+a.Cols]
		rb := b.Data[i*b.Stride : i*b.Stride+b.Cols]
		for j, v := range ra {
			if v != rb[j] {
				return false
			}
		}
	}
	return true
}
