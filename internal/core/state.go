package core

import (
	"fmt"
	"time"

	"repro/internal/cannon"
	"repro/internal/dist"
	"repro/internal/mat"
	"repro/internal/mpi"
	"repro/internal/summa"
)

// ExecState is one rank's executor of a schedule: the split
// communicators of the rank's groups, the resolved kernel
// configuration and block shapes, the redistribution route cache, and
// the buffer arena. Building it performs every collective Split once;
// Execute can then run any number of multiplications of the schedule's
// shape with zero planning, zero communicator construction, and (after
// the first call) zero route building and allocation-flat buffers. It
// is the counterpart of the reference implementation's ca3dmm_engine:
// "plan once, multiply many".
//
// An ExecState is owned by a single rank goroutine and is not safe for
// concurrent use. It holds no OS resources; dropping it releases
// everything.
type ExecState struct {
	s      *Schedule
	opt    Options
	world  *mpi.Comm
	active bool

	a, b       operand // how the rank's A and B blocks are completed
	c          operand // how the kernel's partial C block is reduce-scattered
	cRows      int     // the rank's block of the native C layout
	cCols      int
	inner      *mpi.Comm // the Cannon or SUMMA group
	row, col   *mpi.Comm // SUMMA's panel-broadcast communicators within inner
	cannon     cannon.Config
	summa      summa.Config
	kernelFlop int64

	routes *dist.RouteCache
	arena  *mat.Arena
	held   int64 // bytes registered with RecordAlloc by the call in progress

	setupNs int64
}

// operand is one block of the rank's work cuboid and how it is shared:
// an input block is completed from its sharers' strips, the partial C
// block is summed across its sharers and each keeps one strip.
type operand struct {
	comm       *mpi.Comm // the block's sharers; nil when the rank holds it whole
	rows, cols int       // the complete block
	counts     []int     // elements of each sharer's strip
	byCols     bool      // strips are column ranges (A, C) or row ranges (B)
	padR, padC int       // Cannon's uniform padded shape (inputs only)
}

// stripRange returns the columns (A, C) or rows (B) of sharer q's strip.
func (o *operand) stripRange(q int) (lo, hi int) {
	if o.byCols {
		return dist.BlockRange(o.cols, len(o.counts), q)
	}
	return dist.BlockRange(o.rows, len(o.counts), q)
}

// strip returns sharer q's part of the complete block.
func (o *operand) strip(full *mat.Dense, q int) *mat.Dense {
	lo, hi := o.stripRange(q)
	if o.byCols {
		return full.View(0, lo, o.rows, hi-lo)
	}
	return full.View(lo, 0, hi-lo, o.cols)
}

// resolve fixes the block shape and, when the block is shared, the
// strip sizes of its collective.
func (o *operand) resolve(rows, cols int) {
	o.rows, o.cols = rows, cols
	if o.comm == nil {
		return
	}
	o.counts = make([]int, o.comm.Size())
	for q := range o.counts {
		lo, hi := o.stripRange(q)
		if o.byCols {
			o.counts[q] = rows * (hi - lo)
		} else {
			o.counts[q] = (hi - lo) * cols
		}
	}
}

// NewState builds the calling rank's executor of s. It is collective
// over c: one communicator split per group kind the schedule uses, plus
// SUMMA's row and column splits within the inner group.
func NewState(c *mpi.Comm, s *Schedule, opt Options) *ExecState {
	if c.Size() != s.P {
		panic(fmt.Sprintf("core: communicator size %d != plan size %d", c.Size(), s.P))
	}
	t0 := time.Now()
	rank := c.Rank()
	rp := s.Ranks[rank]
	st := &ExecState{
		s: s, opt: opt, world: c,
		active: rank < s.G.Procs(),
		routes: dist.NewRouteCache(rank),
		arena:  mat.NewArena(),
	}
	st.cRows, st.cCols = s.CLayout.LocalShape(rank)

	// Split is collective, so a group kind is split by every rank (idle
	// ones with the Undefined color) as soon as any rank is a member.
	groups := func(rp *RankPlan) [4]Group { return [4]Group{rp.ARepl, rp.BRepl, rp.CRed, rp.Inner} }
	var comms [4]*mpi.Comm
	for i := range comms {
		for r := range s.Ranks {
			if groups(&s.Ranks[r])[i] != NoGroup {
				g := groups(&rp)[i]
				comms[i] = c.Split(g.Color, g.Key)
				break
			}
		}
	}
	st.a = operand{comm: comms[0], byCols: true}
	st.b = operand{comm: comms[1]}
	st.c = operand{comm: comms[2], byCols: true}
	st.inner = comms[3]

	if st.active {
		m, k, n := rp.PanelM, rp.PanelK, rp.PanelN
		switch s.Kernel {
		case KernelLocal:
			st.a.resolve(m, k)
			st.b.resolve(k, n)
			st.c.resolve(m, n)
			st.kernelFlop = 2 * int64(m) * int64(k) * int64(n)
		case KernelCannon:
			side := min(s.G.Pm, s.G.Pn)
			st.cannon = cannon.Config{
				S: side, M: m, K: k, N: n,
				DualBuffer: opt.DualBuffer,
				Overlap:    opt.Overlap,
				MultiShift: opt.MultiShift,
				MinKBlock:  opt.MinKBlock,
			}
			row, col := st.inner.Rank()/side, st.inner.Rank()%side
			_, _, rows, cols := cannon.ABlockOwned(st.cannon, row, col)
			st.a.resolve(rows, cols)
			_, _, rows, cols = cannon.BBlockOwned(st.cannon, row, col)
			st.b.resolve(rows, cols)
			_, _, rows, cols = cannon.BlockOwned(st.cannon, row, col)
			st.c.resolve(rows, cols)
			am, ak, bn := st.cannon.BlockShape()
			st.a.padR, st.a.padC, st.b.padR, st.b.padC = am, ak, ak, bn
			// Each rank performs S local GEMMs of (am x ak)·(ak x bn)
			// during the shift loop.
			st.kernelFlop = 2 * int64(am) * int64(ak) * int64(bn) * int64(side)
		case KernelSUMMA:
			st.summa = summa.Config{
				Pr: s.G.Pm, Pc: s.G.Pn, M: m, K: k, N: n,
				Panel:    opt.SUMMAPanel,
				Overlap:  opt.Overlap,
				Prefetch: opt.OverlapDepth,
			}
			row, col := st.inner.Rank()/s.G.Pn, st.inner.Rank()%s.G.Pn
			st.row = st.inner.Split(row, col)
			st.col = st.inner.Split(col, row)
			_, _, rows, cols := st.summa.ABlock(row, col)
			st.a.resolve(rows, cols)
			_, _, rows, cols = st.summa.BBlock(row, col)
			st.b.resolve(rows, cols)
			_, _, rows, cols = st.summa.CBlock(row, col)
			st.c.resolve(rows, cols)
			st.kernelFlop = 2 * int64(rows) * int64(cols) * int64(k)
		}
	}
	st.setupNs = time.Since(t0).Nanoseconds()
	return st
}

// Execute runs the plan's schedule once on the calling rank with the
// plan's options (see Schedule.Execute). Collective over c.
func (p *Plan) Execute(c *mpi.Comm, aLocal *mat.Dense, aLayout dist.Layout,
	bLocal *mat.Dense, bLayout dist.Layout, cLayout dist.Layout) (*mat.Dense, StageTimes) {
	return p.Schedule.Execute(c, p.Opt, aLocal, aLayout, bLocal, bLayout, cLayout)
}

// SetupNs returns the cumulative nanoseconds spent on setup work this
// state has amortized away: the communicator splits plus every
// redistribution-route build.
func (st *ExecState) SetupNs() int64 { return st.setupNs + st.routes.BuildNs() }

// RouteStats reports the route cache's cumulative hits and misses.
func (st *ExecState) RouteStats() (hits, misses int64) { return st.routes.Stats() }

// ArenaStats reports the buffer arena's cumulative hits and misses.
// Once a shape reaches steady state the miss count stops growing.
func (st *ExecState) ArenaStats() (hits, misses int64) { return st.arena.Stats() }
