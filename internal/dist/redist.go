package dist

import (
	"fmt"
	"sync/atomic"

	"repro/internal/mat"
)

// pieceInDstCoords maps a source piece into destination coordinates
// (identity, or transposed when the op is a transpose).
func pieceInDstCoords(sp Piece, trans bool) Piece {
	if !trans {
		return sp
	}
	return Piece{R0: sp.C0, C0: sp.R0, Rows: sp.Cols, Cols: sp.Rows, LR: sp.LR, LC: sp.LC}
}

// intersect returns the overlap of the global rectangles of a (already
// destination-coordinate) source piece and a destination piece.
func intersect(a, b Piece) (r0, c0, rows, cols int, ok bool) {
	r0 = max(a.R0, b.R0)
	c0 = max(a.C0, b.C0)
	r1 := min(a.R0+a.Rows, b.R0+b.Rows)
	c1 := min(a.C0+a.Cols, b.C0+b.Cols)
	if r1 <= r0 || c1 <= c0 {
		return 0, 0, 0, 0, false
	}
	return r0, c0, r1 - r0, c1 - c0, true
}

// scatterCalls counts Scatter invocations process-wide. The engine
// tests use it to assert that warm Engine.Multiply calls perform zero
// rank-0 scatters.
var scatterCalls atomic.Int64

// ScatterCalls reports the cumulative number of Scatter invocations in
// this process.
func ScatterCalls() int64 { return scatterCalls.Load() }

// Scatter splits a global matrix into per-rank local buffers according
// to a layout. Serial helper for tests, examples, and the benchmark
// drivers.
func Scatter(global *mat.Dense, l Layout) []*mat.Dense {
	scatterCalls.Add(1)
	if global.Rows != l.GlobalRows() || global.Cols != l.GlobalCols() {
		panic(fmt.Sprintf("dist: Scatter shape %dx%d vs layout %dx%d", global.Rows, global.Cols, l.GlobalRows(), l.GlobalCols()))
	}
	out := make([]*mat.Dense, l.Procs())
	for rank := range out {
		r, c := l.LocalShape(rank)
		lb := mat.New(r, c)
		for _, p := range l.Pieces(rank) {
			for i := 0; i < p.Rows; i++ {
				copy(lb.Data[(p.LR+i)*lb.Stride+p.LC:(p.LR+i)*lb.Stride+p.LC+p.Cols],
					global.Data[(p.R0+i)*global.Stride+p.C0:(p.R0+i)*global.Stride+p.C0+p.Cols])
			}
		}
		out[rank] = lb
	}
	return out
}

// Assemble reconstructs the global matrix from per-rank local buffers.
// Serial helper, inverse of Scatter.
func Assemble(locals []*mat.Dense, l Layout) *mat.Dense {
	if len(locals) != l.Procs() {
		panic(fmt.Sprintf("dist: Assemble got %d locals for %d ranks", len(locals), l.Procs()))
	}
	out := mat.New(l.GlobalRows(), l.GlobalCols())
	for rank, lb := range locals {
		for _, p := range l.Pieces(rank) {
			for i := 0; i < p.Rows; i++ {
				copy(out.Data[(p.R0+i)*out.Stride+p.C0:(p.R0+i)*out.Stride+p.C0+p.Cols],
					lb.Data[(p.LR+i)*lb.Stride+p.LC:(p.LR+i)*lb.Stride+p.LC+p.Cols])
			}
		}
	}
	return out
}
