package core

import (
	"fmt"
	"time"

	"repro/internal/abft"
	"repro/internal/cannon"
	"repro/internal/dist"
	"repro/internal/mat"
	"repro/internal/mpi"
	"repro/internal/summa"
)

// Execute runs one multiplication of the schedule on the calling rank —
// Algorithm 1 of the paper, with whichever steps the schedule leaves
// degenerate skipped:
//
//  1. redistribute op(A) and op(B) from the user layouts into the
//     native layouts (all P ranks participate, transposes are folded
//     into the exchange), then onto their k-slices when the schedule
//     stores its inputs on one face only,
//  2. complete the rank's A and B blocks from the strips its sharers
//     hold (allgather, or one broadcast per strip),
//  3. run the inner kernel: a local GEMM, Cannon's algorithm, or SUMMA,
//  4. reduce-scatter the partial C results, and
//  5. redistribute C into the caller's requested layout.
//
// aLocal and bLocal are the caller's blocks of the stored A and B under
// aLayout and bLayout (layouts of the *stored* matrices: if TransA is
// set, aLayout describes the k x m stored A); cDst, when non-nil, is
// the caller-owned destination block under cLayout (it is fully
// overwritten and returned). When cDst is nil a fresh block is
// allocated — the only per-call allocation that is not arena-recycled,
// since the caller retains it across calls.
func (st *ExecState) Execute(aLocal *mat.Dense, aLayout dist.Layout,
	bLocal *mat.Dense, bLayout dist.Layout, cDst *mat.Dense, cLayout dist.Layout) (*mat.Dense, StageTimes) {

	s, c, tr := st.s, st.world, st.opt.Trace
	checkUserLayout("A", aLayout, s.M, s.K, s.TransA, s.P)
	checkUserLayout("B", bLayout, s.K, s.N, s.TransB, s.P)
	checkUserLayout("C", cLayout, s.M, s.N, false, s.P)

	// Every call sends the same collectives; restarting their tags makes
	// it reuse the previous call's mailboxes, so a resident state's
	// mailbox set stops growing after the first warm call.
	for _, cm := range [...]*mpi.Comm{c, st.a.comm, st.b.comm, st.c.comm, st.inner, st.row, st.col} {
		if cm != nil {
			cm.ResetCollTags()
		}
	}

	var tm StageTimes
	t0 := time.Now()
	endSpan := tr.Begin(c.WorldRank(), "redistribute-in")
	a := st.redist(aLayout, aLocal, s.ALayout, s.TransA, nil, "A")
	b := st.redist(bLayout, bLocal, s.BLayout, s.TransB, nil, "B")
	endSpan()
	tm.Redistribute = time.Since(t0)

	if s.ASpread != nil {
		// The 2.5D / original-3D input movement from the storage face
		// to the layers; those algorithms fold it into their first
		// broadcasts, and the volume is identical.
		ts := time.Now()
		endSpan = tr.Begin(c.WorldRank(), "spread")
		face := a
		a = st.redist(s.ALayout, face, s.ASpread, false, nil, "A-spread")
		st.arena.Put(face)
		face = b
		b = st.redist(s.BLayout, face, s.BSpread, false, nil, "B-spread")
		st.arena.Put(face)
		endSpan()
		tm.ReplicateAB = time.Since(ts)
	}
	st.hold(len(a.Data) + len(b.Data))

	var cNat *mat.Dense
	if st.active {
		cNat = st.compute(a, b, &tm)
	} else {
		cNat = st.arena.Get(st.cRows, st.cCols)
		st.arena.Put(a)
		st.arena.Put(b)
	}

	tr0 := time.Now()
	endSpan = tr.Begin(c.WorldRank(), "redistribute-out")
	cUser := st.redist(s.CLayout, cNat, cLayout, false, cDst, "C")
	endSpan()
	tm.Redistribute += time.Since(tr0)
	st.arena.Put(cNat)

	c.ReleaseAlloc(st.held)
	st.held = 0
	tm.Total = time.Since(t0)
	tm.MatmulOnly = tm.Total - tm.Redistribute
	return cUser, tm
}

// hold registers n live matrix elements with the runtime's per-rank
// memory accounting until the end of the call. What is registered
// follows eq. (11): the native blocks, what replication adds to them,
// Cannon's padded copies (the dual buffers of the reference
// implementation), and the partial C block.
func (st *ExecState) hold(n int) {
	st.world.RecordAlloc(int64(8 * n))
	st.held += int64(8 * n)
}

// compute performs steps 2-4 on an active rank. It takes ownership of
// a and b: their slabs, and every intermediate built here, return to
// the arena as they die, so repeated executions are allocation-flat.
func (st *ExecState) compute(a, b *mat.Dense, tm *StageTimes) *mat.Dense {
	s, tr, rank := st.s, st.opt.Trace, st.world.WorldRank()
	guard := abft.New(st.opt.ABFT, st.world)
	defer guard.Finish()

	// Under Overlap the allgathers run nonblocking, so A's and B's are
	// in flight together, and the operand that needs no replication is
	// completed first: the copy into its Cannon pad is then hidden
	// inside the other's communication window.
	ta := time.Now()
	endSpan := tr.Begin(rank, ReplSpan(s.Repl))
	ops := [2]*operand{&st.a, &st.b}
	blk := [2]*mat.Dense{a, b}
	var reqs [2]*mpi.Request
	for i, o := range ops {
		if o.comm != nil && st.opt.Overlap && s.Repl == ReplAllgather {
			// Iallgatherv snapshots its payload.
			reqs[i] = o.comm.Iallgatherv(blk[i].Pack(), o.counts)
		}
	}
	order := [2]int{0, 1}
	if st.a.comm != nil && st.b.comm == nil {
		order = [2]int{1, 0}
	}
	for _, i := range order {
		blk[i] = st.complete(ops[i], blk[i], reqs[i])
		if s.Kernel == KernelCannon {
			pad := st.arena.Get(ops[i].padR, ops[i].padC)
			pad.View(0, 0, blk[i].Rows, blk[i].Cols).CopyFrom(blk[i])
			st.hold(len(pad.Data))
			st.arena.Put(blk[i])
			blk[i] = pad
		}
	}
	a, b = blk[0], blk[1]
	endSpan()
	tm.ReplicateAB += time.Since(ta)

	var cPart *mat.Dense
	var comm, comp time.Duration
	span := tr.Start(rank, s.Kernel.String())
	switch s.Kernel {
	case KernelLocal:
		tg := time.Now()
		cPart = st.arena.Get(st.a.rows, st.b.cols)
		if len(cPart.Data) > 0 && st.a.cols > 0 {
			abft.Gemm(guard, true, a, b, 0, cPart)
		}
		comp = time.Since(tg)
	case KernelCannon:
		var ktm cannon.Timings
		cPart, ktm = cannon.Multiply(st.inner, guard, a, b, st.cannon, st.arena)
		comm, comp = ktm.Comm, ktm.Compute
	case KernelSUMMA:
		var ktm summa.Timings
		cPart, ktm = summa.Multiply(st.inner, st.row, st.col, guard, a, b, st.summa, st.arena)
		comm, comp = ktm.Comm, ktm.Compute
	}
	tr.EndFlops(span, st.kernelFlop)
	tm.ReplicateAB += comm
	tm.LocalCompute = comp
	st.arena.Put(a)
	st.arena.Put(b)
	st.hold(len(cPart.Data))

	ts := time.Now()
	endSpan = tr.Begin(rank, "reduce-scatter")
	out := st.reduce(cPart)
	endSpan()
	tm.ReduceC = time.Since(ts)
	return out
}

// ReplSpan names the replication stage on the trace timeline: the span
// is recorded even when the schedule has nothing to replicate, under
// the allgather's name.
func ReplSpan(r Replication) string {
	if r == ReplBcast {
		return "bcast"
	}
	return "allgather"
}

// complete returns the rank's whole block of one operand, assembling it
// from the sharers' strips when part is only the rank's own strip; req
// is the allgather already in flight, if any. part is consumed.
func (st *ExecState) complete(o *operand, part *mat.Dense, req *mpi.Request) *mat.Dense {
	if o.comm == nil {
		return part
	}
	full := st.arena.Get(o.rows, o.cols)
	if st.s.Repl == ReplBcast {
		// One broadcast per strip, rooted at the member holding it.
		for q, n := range o.counts {
			if n == 0 {
				continue
			}
			buf := st.arena.GetSlice(n)
			if q == o.comm.Rank() {
				part.PackInto(buf)
			}
			o.strip(full, q).Unpack(o.comm.Bcast(q, buf))
			st.arena.PutSlice(buf)
		}
	} else {
		var all []float64
		if req != nil {
			all = req.Wait()
		} else {
			all = o.comm.Allgatherv(part.Pack(), o.counts)
		}
		off := 0
		for q, n := range o.counts {
			if n > 0 {
				o.strip(full, q).Unpack(all[off : off+n])
				off += n
			}
		}
	}
	st.hold(len(full.Data) - len(part.Data))
	st.arena.Put(part)
	return full
}

// reduce combines the partial results of the rank's C block: the block
// is column-split across the members of the reduction group and member
// g keeps part g (the paper's step 7). part is consumed.
func (st *ExecState) reduce(part *mat.Dense) *mat.Dense {
	o := &st.c
	if o.comm == nil {
		if len(part.Data) == 0 {
			// An empty block takes whatever empty shape the layout
			// records for it.
			return st.arena.Get(st.cRows, st.cCols)
		}
		return part
	}
	buf := st.arena.GetSlice(len(part.Data))
	off := 0
	for g, n := range o.counts {
		if n > 0 {
			o.strip(part, g).PackInto(buf[off : off+n])
			off += n
		}
	}
	// ReduceScatter snapshots its input before combining, so the
	// staging buffer is recyclable as soon as the call returns.
	mine := o.comm.ReduceScatter(buf, o.counts)
	st.arena.PutSlice(buf)
	out := st.arena.Get(st.cRows, st.cCols)
	out.Unpack(mine)
	st.arena.Put(part)
	return out
}

// redist moves a block between layouts through the route cache. A cold
// route runs the blocking sparse alltoallv; a warm route under the
// Overlap option switches to prefetched point-to-point traffic so
// packing overlaps communication. Both schedules move identical
// rectangles, so the result is element-identical either way.
func (st *ExecState) redist(src dist.Layout, local *mat.Dense, dst dist.Layout, trans bool, into *mat.Dense, what string) *mat.Dense {
	rt, hit := st.routes.Get(src, dst, trans)
	if hit {
		st.opt.Trace.Instant(st.world.WorldRank(), "redist:route-hit", what)
	} else {
		st.opt.Trace.Instant(st.world.WorldRank(), "redist:route-miss", what)
	}
	overlap := hit && st.opt.Overlap
	if into != nil {
		if overlap {
			return rt.ApplyOverlapInto(st.world, local, into, st.arena)
		}
		return rt.ApplyInto(st.world, local, into, st.arena)
	}
	if overlap {
		return rt.ApplyOverlap(st.world, local, st.arena)
	}
	return rt.Apply(st.world, local, st.arena)
}

func checkUserLayout(name string, l dist.Layout, rows, cols int, trans bool, p int) {
	wr, wc := rows, cols
	if trans {
		wr, wc = cols, rows
	}
	if l.GlobalRows() != wr || l.GlobalCols() != wc {
		panic(fmt.Sprintf("core: %s layout is %dx%d, want %dx%d", name, l.GlobalRows(), l.GlobalCols(), wr, wc))
	}
	if l.Procs() != p {
		panic(fmt.Sprintf("core: %s layout spans %d ranks, want %d", name, l.Procs(), p))
	}
}
