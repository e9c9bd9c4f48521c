// Package summa implements the SUMMA algorithm (van de Geijn & Watts,
// 1997), the most widely used 2D parallel matrix multiplication and
// the algorithm inside ScaLAPACK's PDGEMM.
//
// It serves three roles in this repository: the classical 2D baseline,
// the inner kernel of the CA3DMM-S variant (paper Section III-E), and
// the latency comparison target for Cannon's algorithm (SUMMA
// broadcasts k-panels along process rows and columns, costing
// pm(log2(pm) + pm - 1) messages against Cannon's pm + log-terms).
//
// The process grid is Pr x Pc, rank = row*Pc + col. A, B, and C are
// partitioned into balanced contiguous 2D blocks (dist.BlockRange in
// both dimensions).
package summa

import (
	"fmt"
	"time"

	"repro/internal/abft"
	"repro/internal/dist"
	"repro/internal/mat"
	"repro/internal/mpi"
	"repro/internal/pipeline"
)

// Config describes one SUMMA multiplication C(MxN) = A(MxK)·B(KxN) on
// a Pr x Pc grid.
type Config struct {
	Pr, Pc  int
	M, K, N int
	// Panel caps the broadcast panel width. Zero uses the full owner
	// block (the "largest possible panel sizes" of the paper's
	// Section III-E analysis, which minimizes the message count).
	Panel int
	// Overlap prefetches the next panel's broadcasts (Ibcast) while the
	// current panel's GEMM runs; panels are accumulated in schedule
	// order regardless of arrival order, so the result is bit-identical
	// to the blocking path.
	Overlap bool
	// Prefetch is the pipeline depth under Overlap: how many panels may
	// be in flight ahead of the one being computed. Zero means 1 (the
	// classic double buffer).
	Prefetch int
}

// Timings splits the wall time into broadcast communication and local
// compute.
type Timings struct {
	Comm    time.Duration
	Compute time.Duration
}

// ABlock returns the global rectangle of A owned by grid position
// (row, col).
func (cfg Config) ABlock(row, col int) (r0, c0, rows, cols int) {
	rlo, rhi := dist.BlockRange(cfg.M, cfg.Pr, row)
	clo, chi := dist.BlockRange(cfg.K, cfg.Pc, col)
	return rlo, clo, rhi - rlo, chi - clo
}

// BBlock returns the global rectangle of B owned by (row, col).
func (cfg Config) BBlock(row, col int) (r0, c0, rows, cols int) {
	rlo, rhi := dist.BlockRange(cfg.K, cfg.Pr, row)
	clo, chi := dist.BlockRange(cfg.N, cfg.Pc, col)
	return rlo, clo, rhi - rlo, chi - clo
}

// CBlock returns the global rectangle of C owned by (row, col).
func (cfg Config) CBlock(row, col int) (r0, c0, rows, cols int) {
	rlo, rhi := dist.BlockRange(cfg.M, cfg.Pr, row)
	clo, chi := dist.BlockRange(cfg.N, cfg.Pc, col)
	return rlo, clo, rhi - rlo, chi - clo
}

// Multiply runs SUMMA. The communicator must have exactly Pr*Pc ranks
// in row-major grid order; rowComm and colComm are the caller's process
// row (ordered by column) and process column (ordered by row) within
// it, for the panel broadcasts — split once by the caller, not per
// call. a and b are the caller's blocks per ABlock and BBlock. Returns
// the caller's C block, drawn from ar (nil = plain allocation) so the
// caller may Put it back. g guards every panel's GEMM accumulation with
// Huang–Abraham checksums (nil = no guard).
func Multiply(c, rowComm, colComm *mpi.Comm, g *abft.Guard, a, b *mat.Dense, cfg Config, ar *mat.Arena) (*mat.Dense, Timings) {
	var tm Timings
	if c.Size() != cfg.Pr*cfg.Pc {
		panic(fmt.Sprintf("summa: communicator size %d != %dx%d", c.Size(), cfg.Pr, cfg.Pc))
	}
	row, col := c.Rank()/cfg.Pc, c.Rank()%cfg.Pc
	_, _, aRows, aCols := cfg.ABlock(row, col)
	if a.Rows != aRows || a.Cols != aCols {
		panic(fmt.Sprintf("summa: A block %dx%d, want %dx%d", a.Rows, a.Cols, aRows, aCols))
	}
	_, _, bRows, bCols := cfg.BBlock(row, col)
	if b.Rows != bRows || b.Cols != bCols {
		panic(fmt.Sprintf("summa: B block %dx%d, want %dx%d", b.Rows, b.Cols, bRows, bCols))
	}
	_, _, cRows, cCols := cfg.CBlock(row, col)
	cLoc := ar.Get(cRows, cCols)

	aLo, _ := dist.BlockRange(cfg.K, cfg.Pc, col) // my A block's k offset
	bLo, _ := dist.BlockRange(cfg.K, cfg.Pr, row) // my B block's k offset

	// Walk the k dimension over the union of A-column and B-row block
	// boundaries so each broadcast panel has a single owner on each
	// side. The schedule is precomputed so the overlap pipeline can
	// initiate panel broadcasts ahead of the panel being computed.
	type panelStep struct{ t, end, ownA, ownB int }
	var steps []panelStep
	for t := 0; t < cfg.K; {
		ownA := blockOwner(cfg.K, cfg.Pc, t)
		ownB := blockOwner(cfg.K, cfg.Pr, t)
		_, aHi := dist.BlockRange(cfg.K, cfg.Pc, ownA)
		_, bHi := dist.BlockRange(cfg.K, cfg.Pr, ownB)
		end := min(aHi, bHi)
		if cfg.Panel > 0 && end > t+cfg.Panel {
			end = t + cfg.Panel
		}
		steps = append(steps, panelStep{t: t, end: end, ownA: ownA, ownB: ownB})
		t = end
	}

	packA := func(ps panelStep, w int) []float64 {
		aPanel := make([]float64, cRows*w)
		if col == ps.ownA && cRows > 0 && w > 0 {
			a.View(0, ps.t-aLo, cRows, w).PackInto(aPanel)
		}
		return aPanel
	}
	packB := func(ps panelStep, w int) []float64 {
		bPanel := make([]float64, w*cCols)
		if row == ps.ownB && w > 0 && cCols > 0 {
			b.View(ps.t-bLo, 0, w, cCols).PackInto(bPanel)
		}
		return bPanel
	}

	if cfg.Overlap {
		// Pipelined panel loop: the next panel's row and column Ibcasts
		// are in flight while this panel's GEMM runs on the worker
		// pool. Accumulation happens in schedule order inside
		// pipeline.Run, never in arrival order.
		depth := cfg.Prefetch
		if depth <= 0 {
			depth = 1
		}
		pipeline.Run(len(steps), depth,
			func(i int) func() [2][]float64 {
				ps := steps[i]
				w := ps.end - ps.t
				tc := time.Now()
				ra := rowComm.Ibcast(ps.ownA, packA(ps, w))
				rb := colComm.Ibcast(ps.ownB, packB(ps, w))
				tm.Comm += time.Since(tc)
				return func() [2][]float64 {
					tw := time.Now()
					av := ra.Wait()
					bv := rb.Wait()
					tm.Comm += time.Since(tw)
					return [2][]float64{av, bv}
				}
			},
			func(i int, panels [2][]float64) {
				ps := steps[i]
				w := ps.end - ps.t
				tg := time.Now()
				if cRows > 0 && cCols > 0 && w > 0 {
					abft.Gemm(g, false,
						mat.FromSlice(cRows, w, panels[0]), mat.FromSlice(w, cCols, panels[1]), 1, cLoc)
				}
				tm.Compute += time.Since(tg)
			})
		return cLoc, tm
	}

	for _, ps := range steps {
		w := ps.end - ps.t

		// Broadcast A(:, t:end) within my process row from column ownA.
		tc := time.Now()
		aPanel := rowComm.Bcast(ps.ownA, packA(ps, w))

		// Broadcast B(t:end, :) within my process column from row ownB.
		bPanel := colComm.Bcast(ps.ownB, packB(ps, w))
		tm.Comm += time.Since(tc)

		tg := time.Now()
		if cRows > 0 && cCols > 0 && w > 0 {
			abft.Gemm(g, true,
				mat.FromSlice(cRows, w, aPanel), mat.FromSlice(w, cCols, bPanel), 1, cLoc)
		}
		tm.Compute += time.Since(tg)
	}
	return cLoc, tm
}

// blockOwner returns the index of the balanced block of n items over p
// parts (dist.BlockRange partition) containing item t.
func blockOwner(n, p, t int) int {
	lo, hi := 0, p-1
	for lo < hi {
		mid := (lo + hi) / 2
		_, h := dist.BlockRange(n, p, mid)
		if t < h {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
