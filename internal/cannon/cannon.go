// Package cannon implements Cannon's algorithm for dense matrix
// multiplication on a square process grid.
//
// CA3DMM uses Cannon's algorithm as the 2D kernel inside each Cannon
// group (paper Section III-B/III-E): after an initial skew, each of
// the s-1 steps circularly shifts the local A block to the left
// neighbor and the local B block to the upper neighbor, so the
// algorithm needs only fixed-pattern neighbor communication — the
// property that makes its latency lower than SUMMA's panel broadcasts.
//
// Matrix dimensions need not divide the grid side: local blocks are
// zero-padded to the uniform ceiling size, which keeps every shifted
// message the same shape (padding contributes nothing to the result).
package cannon

import (
	"fmt"
	"time"

	"repro/internal/abft"
	"repro/internal/mat"
	"repro/internal/mpi"
)

// Config describes one Cannon multiplication: the panel C(MxN) +=
// A(MxK)·B(KxN) distributed over an s x s grid, rank = row*s + col.
type Config struct {
	S       int // grid side; the communicator must have exactly S*S ranks
	M, K, N int // panel dimensions
	// DualBuffer posts the outgoing shift before the local multiply,
	// overlapping communication with computation (the paper's
	// dual-buffer optimization). Correctness is unaffected.
	DualBuffer bool
	// Overlap runs the shift loop through the nonblocking pipeline:
	// each step's Isendrecv pair is in flight — send and background
	// receive both — while that step's GEMM runs on the worker pool,
	// and only the residual wait is exposed. Strictly stronger than
	// DualBuffer (which overlaps the send only); takes precedence over
	// it. The accumulation order is unchanged, so the result is
	// bit-identical to the blocking path.
	Overlap bool
	// MultiShift aggregates up to MultiShift consecutive shift steps
	// into a single wider local multiplication when the per-block
	// k-dimension is thin ("we perform multiple shifts for one local
	// matrix multiplication if A and B blocks in Cannon's algorithm do
	// not have a large enough k-dimension size"). Values < 2 disable
	// aggregation.
	MultiShift int
	// MinKBlock is the k-width threshold below which MultiShift
	// aggregation activates. Zero means 64.
	MinKBlock int
}

// Timings separates the wall-clock cost of the multiplication into
// communication (initial skew + shifts) and local compute, feeding the
// paper's runtime-breakdown experiment (Fig. 5).
type Timings struct {
	Comm    time.Duration
	Compute time.Duration
}

// BlockShape returns the padded uniform local block shapes: A blocks
// are am x ak, B blocks ak x bn, C blocks am x bn.
func (cfg Config) BlockShape() (am, ak, bn int) {
	return ceilDiv(cfg.M, cfg.S), ceilDiv(cfg.K, cfg.S), ceilDiv(cfg.N, cfg.S)
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// PadBlock copies the (row,col) block of the logical partition of an
// R x C panel into a padded buffer of the uniform block shape. local
// is that rank's unpadded block (sized by dist.BlockRange semantics:
// balanced split). Exposed so callers can build Cannon inputs.
func PadBlock(local *mat.Dense, padRows, padCols int) *mat.Dense {
	if local.Rows == padRows && local.Cols == padCols {
		return local.Clone()
	}
	out := mat.New(padRows, padCols)
	out.View(0, 0, local.Rows, local.Cols).CopyFrom(local)
	return out
}

// Multiply runs Cannon's algorithm. The communicator must have exactly
// cfg.S*cfg.S ranks; the caller's rank r holds the (r/S, r%S) blocks
// of the *padded* uniform partition of A and B (use PadBlock). The
// returned matrix is the caller's unpadded block of C (balanced
// ceiling/floor split per Cannon convention: row block i covers rows
// [i*am, min((i+1)*am, M)) of the panel, where am = ceil(M/S)), drawn
// from ar (nil = plain allocation) so the caller may Put it back. g
// guards every local GEMM step with Huang–Abraham checksums (nil = no
// guard).
func Multiply(c *mpi.Comm, g *abft.Guard, a, b *mat.Dense, cfg Config, ar *mat.Arena) (*mat.Dense, Timings) {
	var tm Timings
	s := cfg.S
	if c.Size() != s*s {
		panic(fmt.Sprintf("cannon: communicator size %d != s^2 = %d", c.Size(), s*s))
	}
	am, ak, bn := cfg.BlockShape()
	if a.Rows != am || a.Cols != ak {
		panic(fmt.Sprintf("cannon: A block %dx%d, want padded %dx%d", a.Rows, a.Cols, am, ak))
	}
	if b.Rows != ak || b.Cols != bn {
		panic(fmt.Sprintf("cannon: B block %dx%d, want padded %dx%d", b.Rows, b.Cols, ak, bn))
	}

	row, col := c.Rank()/s, c.Rank()%s
	cPad := ar.Get(am, bn)

	if s == 1 {
		t0 := time.Now()
		abft.Gemm(g, true, a, b, 0, cPad)
		tm.Compute += time.Since(t0)
		return cropC(cPad, cfg, row, col, ar), tm
	}

	rank := func(r, cc int) int { return ((r+s)%s)*s + (cc+s)%s }

	// Initial skewing: A block moves left by its row index, B block
	// moves up by its column index.
	t0 := time.Now()
	aBuf := a.Pack()
	bBuf := b.Pack()
	const tagA, tagB = 0, 1
	if row > 0 {
		aBuf = c.Sendrecv(rank(row, col-row), rank(row, col+row), tagA, aBuf)
	}
	if col > 0 {
		bBuf = c.Sendrecv(rank(row-col, col), rank(row+col, col), tagB, bBuf)
	}
	tm.Comm += time.Since(t0)

	curA := mat.New(am, ak)
	curA.Unpack(aBuf)
	curB := mat.New(ak, bn)
	curB.Unpack(bBuf)

	minK := cfg.MinKBlock
	if minK == 0 {
		minK = 64
	}
	aggregate := cfg.MultiShift >= 2 && ak < minK

	if aggregate {
		multiplyAggregated(c, g, curA, curB, cPad, cfg, row, col, &tm)
	} else if cfg.Overlap {
		multiplyOverlapped(c, g, curA, curB, cPad, cfg, row, col, &tm)
	} else if cfg.DualBuffer {
		// Post the shift of the current blocks, multiply the local
		// copies, then receive the next blocks: the send is in flight
		// during the GEMM.
		for step := 0; step < s; step++ {
			if step < s-1 {
				tc := time.Now()
				c.Send(rank(row, col-1), tagA, curA.Data)
				c.Send(rank(row-1, col), tagB, curB.Data)
				tm.Comm += time.Since(tc)
			}
			tg := time.Now()
			abft.Gemm(g, true, curA, curB, 1, cPad)
			tm.Compute += time.Since(tg)
			if step < s-1 {
				tc := time.Now()
				c.RecvInto(rank(row, col+1), tagA, curA.Data)
				c.RecvInto(rank(row+1, col), tagB, curB.Data)
				tm.Comm += time.Since(tc)
			}
		}
	} else {
		for step := 0; step < s; step++ {
			tg := time.Now()
			abft.Gemm(g, true, curA, curB, 1, cPad)
			tm.Compute += time.Since(tg)
			if step < s-1 {
				tc := time.Now()
				copy(curA.Data, c.Sendrecv(rank(row, col-1), rank(row, col+1), tagA, curA.Data))
				copy(curB.Data, c.Sendrecv(rank(row-1, col), rank(row+1, col), tagB, curB.Data))
				tm.Comm += time.Since(tc)
			}
		}
	}

	return cropC(cPad, cfg, row, col, ar), tm
}

// multiplyOverlapped is the double-buffered shift loop: step i's GEMM
// runs on the current blocks while step i+1's blocks are already in
// flight (eager sends out, background receives claiming), so only the
// comm time exceeding the GEMM is exposed in tm.Comm. The received
// payloads become the second buffer set — no copy back into the
// current blocks. Cannon's shift carries a true data dependence (a
// step sends the blocks it just received), so the pipeline depth is
// inherently one; deeper prefetch exists only on the SUMMA path, whose
// panels are independent. The GEMM runs on the shared worker pool,
// which consumes (MC,NC) tiles as they are scheduled and is
// bit-identical to the serial engine, so enabling Overlap cannot
// change the result.
func multiplyOverlapped(c *mpi.Comm, g *abft.Guard, curA, curB, cPad *mat.Dense, cfg Config, row, col int, tm *Timings) {
	s := cfg.S
	am, ak, bn := cfg.BlockShape()
	rank := func(r, cc int) int { return ((r+s)%s)*s + (cc+s)%s }
	const tagA, tagB = 0, 1
	var reqA, reqB *mpi.Request
	// If a Wait aborts (dead neighbor, revocation, timeout), the
	// sibling request is cancelled: its background claim is drained by
	// the runtime, not leaked.
	defer func() {
		if reqA != nil {
			reqA.Cancel()
		}
		if reqB != nil {
			reqB.Cancel()
		}
	}()
	for step := 0; step < s; step++ {
		if step < s-1 {
			tc := time.Now()
			reqA = c.Isendrecv(rank(row, col-1), rank(row, col+1), tagA, curA.Data)
			reqB = c.Isendrecv(rank(row-1, col), rank(row+1, col), tagB, curB.Data)
			tm.Comm += time.Since(tc)
		}
		tg := time.Now()
		abft.Gemm(g, false, curA, curB, 1, cPad)
		tm.Compute += time.Since(tg)
		if step < s-1 {
			tc := time.Now()
			a := reqA.Wait()
			reqA = nil
			b := reqB.Wait()
			reqB = nil
			curA = mat.FromSlice(am, ak, a)
			curB = mat.FromSlice(ak, bn, b)
			tm.Comm += time.Since(tc)
		}
	}
}

// multiplyAggregated performs the shifts in groups, concatenating g
// received A blocks side by side (and B blocks stacked) so each local
// GEMM has k-dimension g*ak.
func multiplyAggregated(c *mpi.Comm, guard *abft.Guard, curA, curB, cPad *mat.Dense, cfg Config, row, col int, tm *Timings) {
	s := cfg.S
	am, ak, bn := cfg.BlockShape()
	g := cfg.MultiShift
	if g > s {
		g = s
	}
	rank := func(r, cc int) int { return ((r+s)%s)*s + (cc+s)%s }
	const tagA, tagB = 0, 1

	wideA := mat.New(am, g*ak)
	tallB := mat.New(g*ak, bn)
	step := 0
	for step < s {
		batch := g
		if step+batch > s {
			batch = s - step
		}
		for i := 0; i < batch; i++ {
			wideA.View(0, i*ak, am, ak).CopyFrom(curA)
			tallB.View(i*ak, 0, ak, bn).CopyFrom(curB)
			if step+i < s-1 {
				tc := time.Now()
				copy(curA.Data, c.Sendrecv(rank(row, col-1), rank(row, col+1), tagA, curA.Data))
				copy(curB.Data, c.Sendrecv(rank(row-1, col), rank(row+1, col), tagB, curB.Data))
				tm.Comm += time.Since(tc)
			}
		}
		tg := time.Now()
		abft.Gemm(guard, true,
			wideA.View(0, 0, am, batch*ak), tallB.View(0, 0, batch*ak, bn), 1, cPad)
		tm.Compute += time.Since(tg)
		step += batch
	}
}

// cropC trims the padded C block to the caller's true block of the
// M x N panel: row block i covers [i*am, min((i+1)*am, M)). An interior
// block is the padded block itself; an edge block is copied out and the
// padded slab returned to ar.
func cropC(cPad *mat.Dense, cfg Config, row, col int, ar *mat.Arena) *mat.Dense {
	am, _, bn := cfg.BlockShape()
	r0 := row * am
	c0 := col * bn
	rows := min(am, cfg.M-r0)
	cols := min(bn, cfg.N-c0)
	if rows < 0 {
		rows = 0
	}
	if cols < 0 {
		cols = 0
	}
	if rows == am && cols == bn {
		return cPad
	}
	out := ar.Get(rows, cols)
	out.CopyFrom(cPad.View(0, 0, rows, cols))
	ar.Put(cPad)
	return out
}

// BlockOwned returns the global (within-panel) rectangle of the C
// block owned by grid position (row, col) under the padded-uniform
// partition used by Multiply.
func BlockOwned(cfg Config, row, col int) (r0, c0, rows, cols int) {
	am, _, bn := cfg.BlockShape()
	r0, c0 = row*am, col*bn
	rows = min(am, cfg.M-r0)
	cols = min(bn, cfg.N-c0)
	if rows <= 0 || cols <= 0 {
		return 0, 0, 0, 0
	}
	return r0, c0, rows, cols
}

// ABlockOwned returns the global rectangle of the A block held by grid
// position (row, col) before skewing (the padded-uniform partition).
func ABlockOwned(cfg Config, row, col int) (r0, c0, rows, cols int) {
	am, ak, _ := cfg.BlockShape()
	r0, c0 = row*am, col*ak
	rows = min(am, cfg.M-r0)
	cols = min(ak, cfg.K-c0)
	if rows <= 0 || cols <= 0 {
		return 0, 0, 0, 0
	}
	return r0, c0, rows, cols
}

// BBlockOwned returns the global rectangle of the B block held by grid
// position (row, col) before skewing.
func BBlockOwned(cfg Config, row, col int) (r0, c0, rows, cols int) {
	_, ak, bn := cfg.BlockShape()
	r0, c0 = row*ak, col*bn
	rows = min(ak, cfg.K-r0)
	cols = min(bn, cfg.N-c0)
	if rows <= 0 || cols <= 0 {
		return 0, 0, 0, 0
	}
	return r0, c0, rows, cols
}
