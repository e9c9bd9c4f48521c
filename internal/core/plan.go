// Package core implements CA3DMM, the Communication-Avoiding 3D
// Matrix Multiplication algorithm (Huang & Chow, SC 2022).
//
// CA3DMM views the multiplication C = op(A)·op(B) as pk independent
// rank-(k/pk) updates: the process grid pm x pn x pk is organized as
// pk k-task groups of pm x pn processes; each k-task group computes
// one low-rank update with a 2D algorithm (Cannon's), and the partial
// results are combined with a reduce-scatter. Because
// max(pm,pn) mod min(pm,pn) = 0 is enforced at grid selection, each
// k-task group splits into c = max(pm,pn)/min(pm,pn) square Cannon
// groups of side s = min(pm,pn); the smaller of A and B is replicated
// c times across the Cannon groups by an allgather. The scheme
// degenerates gracefully: pk = 1 gives a pure 2D algorithm, s = 1
// gives 1D algorithms, and m = n = 1 gives the optimal inner-product
// reduction — the paper's "unified view".
package core

import (
	"fmt"

	"repro/internal/abft"
	"repro/internal/dist"
	"repro/internal/grid"
	"repro/internal/obs"
)

// Options configures plan construction.
type Options struct {
	// Grid forces a specific process grid instead of optimizing
	// (paper Table II drives CA3DMM with explicit grids this way).
	Grid grid.Grid
	// LowerUtil is the utilization bound l of constraint (5);
	// zero means the paper's default 0.95.
	LowerUtil float64
	// DualBuffer enables communication/computation overlap in the
	// Cannon stage (on in the reference implementation).
	DualBuffer bool
	// MultiShift aggregates Cannon shifts for thin k-blocks; values
	// < 2 disable aggregation.
	MultiShift int
	// MinKBlock is the k-width threshold for MultiShift (0 = 64).
	MinKBlock int
	// ABFT guards every local GEMM accumulation step (Cannon and SUMMA
	// kernels alike) with Huang–Abraham checksums: silent bit flips in
	// an output tile or a resident operand buffer are detected per
	// step, corrected in place when localizable, and absorbed by a
	// surgical tile recompute otherwise — the two cheap rungs above the
	// replace/shrink/full-retry ladder.
	ABFT abft.Options
	// Overlap enables communication/computation overlap throughout the
	// execution: the Cannon stage shifts with nonblocking sendrecv
	// behind the GEMM, the SUMMA stage prefetches panel broadcasts with
	// Ibcast, and the replication allgather overlaps the padding of the
	// non-replicated matrix. Accumulation order is fixed, so results
	// are bit-identical to the blocking path. Strictly stronger than
	// DualBuffer (which only double-buffers the Cannon shift targets).
	Overlap bool
	// OverlapDepth is the prefetch depth of the SUMMA panel pipeline
	// under Overlap (how many panels may be in flight ahead of the one
	// being computed). Zero means 1, the classic double buffer. Cannon
	// shifts are inherently depth-1 (each shift sends the block just
	// received), so this knob does not affect the Cannon stage.
	OverlapDepth int
	// UseSUMMA replaces the Cannon kernel with SUMMA inside each
	// k-task group (the CA3DMM-S variant of Section III-E, for
	// ablation). The grid is then chosen without constraint (7).
	UseSUMMA bool
	// SUMMAPanel is the SUMMA broadcast panel width (0 = automatic).
	SUMMAPanel int
	// MaxPk caps the number of k-task groups. This is the paper's
	// second memory-control knob (Section V): fewer k-task groups
	// means fewer partial C copies, trading communication volume for
	// memory as the algorithm moves toward a 2D algorithm.
	MaxPk int
	// MemoryLimitBytes bounds the per-process memory predicted by the
	// eq. (11) model. When positive, the planner reduces the number of
	// k-task groups until the model fits, or fails if even pk = 1
	// exceeds the limit. Ignored when Grid is forced.
	MemoryLimitBytes int64
	// ReservedSpares holds back this many trailing ranks from the grid
	// optimizer: the grid is chosen for p - ReservedSpares processes,
	// so at least that many ranks are guaranteed idle. The elastic
	// recovery ladder promotes them into compute slots on failure
	// (same grid, no replan). Ignored when Grid is forced — an explicit
	// grid already fixes the active count.
	ReservedSpares int
	// Trace, when non-nil, records a per-rank stage timeline of every
	// execution (exportable as a Chrome trace).
	Trace *obs.Recorder
}

// Plan is the CA3DMM planner's result for a multiplication of fixed
// shape on a fixed number of processes: the schedule (process grid,
// every rank's groups and panel, native layouts) plus the quantities
// the paper's analysis is written in. Plans are immutable and safe for
// concurrent use by all ranks.
type Plan struct {
	*Schedule

	Crep int  // c: Cannon groups per k-task group (replication factor)
	S    int  // s: side of each square Cannon group
	RepA bool // true: A is replicated (pm <= pn); false: B is replicated

	Opt Options
}

// kRange returns k-task group g's slice of the k dimension.
func (p *Plan) kRange(g int) (int, int) { return dist.BlockRange(p.K, p.G.Pk, g) }

// mRange returns Cannon group q's slice of the m dimension (identity
// when A is replicated: the full m range).
func (p *Plan) mRange(q int) (int, int) {
	if p.RepA {
		return 0, p.M
	}
	return dist.BlockRange(p.M, p.Crep, q)
}

// nRange returns Cannon group q's slice of the n dimension (identity
// when B is replicated).
func (p *Plan) nRange(q int) (int, int) {
	if !p.RepA {
		return 0, p.N
	}
	return dist.BlockRange(p.N, p.Crep, q)
}

// NewPlan builds a CA3DMM plan for C = op(A)·op(B) with op-applied
// dimensions m, n, k on p processes. m, n, k refer to the multiplied
// shapes: op(A) is m x k and op(B) is k x n regardless of the
// transpose flags (which only affect how user matrices are
// redistributed into the native layouts).
func NewPlan(m, n, k, p int, transA, transB bool, opt Options) (*Plan, error) {
	if err := CheckDims("core", m, n, k, p); err != nil {
		return nil, err
	}
	g := opt.Grid
	if g.Procs() == 0 {
		pOpt := p
		if opt.ReservedSpares > 0 {
			pOpt = p - opt.ReservedSpares
			if pOpt < 1 {
				return nil, fmt.Errorf("core: %d reserved spare(s) leave no compute ranks out of %d", opt.ReservedSpares, p)
			}
		}
		var err error
		g, err = grid.Optimize(m, n, k, pOpt, grid.Options{
			LowerUtil:          opt.LowerUtil,
			NoCannonConstraint: opt.UseSUMMA,
			MaxK:               opt.MaxPk,
		})
		if err != nil {
			return nil, err
		}
		if opt.MemoryLimitBytes > 0 {
			g, err = fitMemory(m, n, k, pOpt, g, opt)
			if err != nil {
				return nil, err
			}
		}
	} else {
		if g.Procs() > p {
			return nil, fmt.Errorf("core: forced grid %v needs %d > %d processes", g, g.Procs(), p)
		}
		if g.Pm > m || g.Pn > n || g.Pk > k {
			return nil, fmt.Errorf("core: forced grid %v exceeds matrix dimensions %dx%dx%d", g, m, k, n)
		}
		if !opt.UseSUMMA {
			hi, lo := g.Pm, g.Pn
			if hi < lo {
				hi, lo = lo, hi
			}
			if lo == 0 || hi%lo != 0 {
				return nil, fmt.Errorf("core: forced grid %v violates the Cannon divisibility constraint (eq. 7)", g)
			}
		}
	}

	pl := &Plan{
		Schedule: NewSchedule(m, n, k, p, transA, transB, g),
		Opt:      opt,
		RepA:     g.Pm <= g.Pn,
	}
	if opt.UseSUMMA {
		// CA3DMM-S: one "Cannon group" spanning the whole pm x pn
		// k-task group; no replication. S is unused.
		pl.Crep, pl.S = 1, 0
		pl.Kernel = KernelSUMMA
	} else {
		pl.Crep = g.CannonGroups()
		pl.S = g.CannonSize()
		pl.Kernel = KernelCannon
	}
	if pl.Crep > 1 {
		pl.Repl = ReplAllgather
	}
	for r := 0; r < g.Procs(); r++ {
		if opt.UseSUMMA {
			pl.planSUMMARank(r)
		} else {
			pl.planCannonRank(r)
		}
	}
	return pl, nil
}

// planCannonRank places rank r in the schedule and assigns its native
// blocks. Ranks are organized "column-major" as in the paper: all ranks
// of a k-task group g are contiguous, and within it all ranks of a
// Cannon group q are contiguous; within a Cannon group, local rank
// j*s+i sits at grid position (i, j). The layouts satisfy the paper's
// invariants: exactly one copy of A and B across all processes
// initially (the c-fold replication happens later via allgather), 2D
// partitions, balanced per-rank storage, and a final C that is
// 2D-partitioned across all active processes.
func (p *Plan) planCannonRank(r int) {
	s2 := p.S * p.S
	g, lr := r/(p.G.Pm*p.G.Pn), r%(p.G.Pm*p.G.Pn)
	q, pos := lr/s2, lr%s2
	i, j := pos%p.S, pos/p.S

	k0, k1 := p.kRange(g)
	m0, m1 := p.mRange(q)
	n0, n1 := p.nRange(q)
	kg, mq, nq := k1-k0, m1-m0, n1-n0

	rp := &p.Ranks[r]
	rp.PanelM, rp.PanelK, rp.PanelN = mq, kg, nq
	// Cannon's kernel addresses rank r as grid position (r/s, r%s),
	// i.e. row-major; order the group that way.
	rp.Inner = Group{Color: g*p.Crep + q, Key: i*p.S + j}
	if p.Crep > 1 {
		repl := Group{Color: g*s2 + pos, Key: q}
		if p.RepA {
			rp.ARepl = repl
		} else {
			rp.BRepl = repl
		}
	}
	if p.G.Pk > 1 {
		rp.CRed = Group{Color: q*s2 + pos, Key: g}
	}

	// Cannon's padded-uniform s x s partition of the group's A (mq x kg)
	// and B (kg x nq) panels; the replicated matrix's block is further
	// split c ways, by columns for A and by rows for B, one strip per
	// Cannon group.
	am, ak, bn := ceilDiv(mq, p.S), ceilDiv(kg, p.S), ceilDiv(nq, p.S)
	ar0, ac0, arows, acols := clampBlock(i*am, j*ak, am, ak, mq, kg)
	br0, bc0, brows, bcols := clampBlock(i*ak, j*bn, ak, bn, kg, nq)
	if p.RepA {
		lo, hi := dist.BlockRange(acols, p.Crep, q)
		p.ALayout.SetBlock(r, ar0, k0+ac0+lo, dist.ZeroIf(arows, hi-lo), hi-lo)
		p.BLayout.SetBlock(r, k0+br0, n0+bc0, brows, bcols)
	} else {
		lo, hi := dist.BlockRange(brows, p.Crep, q)
		p.ALayout.SetBlock(r, m0+ar0, k0+ac0, arows, acols)
		p.BLayout.SetBlock(r, k0+br0+lo, bc0, hi-lo, dist.ZeroIf(bcols, hi-lo))
	}
	// C block of this position, column-split pk ways; part g.
	cr0, cc0, crows, ccols := clampBlock(i*am, j*bn, am, bn, mq, nq)
	lo, hi := dist.BlockRange(ccols, p.G.Pk, g)
	p.CLayout.SetBlock(r, m0+cr0, n0+cc0+lo, dist.ZeroIf(crows, hi-lo), hi-lo)
}

// planSUMMARank is planCannonRank for CA3DMM-S: the k-task group is one
// pm x pn SUMMA grid (local rank lr at column-major position
// (lr%pm, lr/pm)) holding plain 2D partitions of its A and B panels,
// and C is column-split pk ways as before.
func (p *Plan) planSUMMARank(r int) {
	pm, pn := p.G.Pm, p.G.Pn
	g, lr := r/(pm*pn), r%(pm*pn)
	i, j := lr%pm, lr/pm
	k0, k1 := p.kRange(g)
	kg := k1 - k0

	rp := &p.Ranks[r]
	rp.PanelM, rp.PanelK, rp.PanelN = p.M, kg, p.N
	rp.Inner = Group{Color: g, Key: i*pn + j} // row-major grid order for SUMMA
	if p.G.Pk > 1 {
		rp.CRed = Group{Color: lr, Key: g}
	}

	ar0, ar1 := dist.BlockRange(p.M, pm, i)
	ac0, ac1 := dist.BlockRange(kg, pn, j)
	p.ALayout.SetBlock(r, ar0, k0+ac0, ar1-ar0, ac1-ac0)

	br0, br1 := dist.BlockRange(kg, pm, i)
	bc0, bc1 := dist.BlockRange(p.N, pn, j)
	p.BLayout.SetBlock(r, k0+br0, bc0, br1-br0, bc1-bc0)

	lo, hi := dist.BlockRange(bc1-bc0, p.G.Pk, g)
	p.CLayout.SetBlock(r, ar0, bc0+lo, dist.ZeroIf(ar1-ar0, hi-lo), hi-lo)
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// memoryOfGrid evaluates the eq. (11) model (in bytes) for a candidate
// grid without building the full plan.
func memoryOfGrid(m, n, k int, g grid.Grid, useSUMMA bool) float64 {
	probe := &Plan{Schedule: &Schedule{M: m, N: n, K: k, G: g}, RepA: g.Pm <= g.Pn}
	if useSUMMA {
		probe.Crep, probe.S = 1, 0
	} else {
		probe.Crep = g.CannonGroups()
		probe.S = g.CannonSize()
	}
	return probe.MemoryModel() * 8
}

// fitMemory reduces the number of k-task groups (the paper's Section V
// memory-control approach) until the eq. (11) model fits the limit.
func fitMemory(m, n, k, p int, g grid.Grid, opt Options) (grid.Grid, error) {
	if memoryOfGrid(m, n, k, g, opt.UseSUMMA) <= float64(opt.MemoryLimitBytes) {
		return g, nil
	}
	best := g
	bestMem := memoryOfGrid(m, n, k, g, opt.UseSUMMA)
	for maxK := g.Pk - 1; maxK >= 1; maxK-- {
		cand, err := grid.Optimize(m, n, k, p, grid.Options{
			LowerUtil:          opt.LowerUtil,
			NoCannonConstraint: opt.UseSUMMA,
			MaxK:               maxK,
		})
		if err != nil {
			continue
		}
		mem := memoryOfGrid(m, n, k, cand, opt.UseSUMMA)
		if mem <= float64(opt.MemoryLimitBytes) {
			return cand, nil
		}
		if mem < bestMem {
			best, bestMem = cand, mem
		}
		if cand.Pk < maxK {
			maxK = cand.Pk // skip redundant caps
		}
	}
	return grid.Grid{}, fmt.Errorf(
		"core: memory limit %d B unsatisfiable: smallest eq.(11) footprint is %.0f B with grid %v",
		opt.MemoryLimitBytes, bestMem, best)
}

// clampBlock clips the padded-uniform block starting at (r0, c0) with
// nominal size rows x cols to the panel extent (R, C). Empty blocks
// come back as (0,0,0,0).
func clampBlock(r0, c0, rows, cols, R, C int) (int, int, int, int) {
	if r0 >= R || c0 >= C {
		return 0, 0, 0, 0
	}
	if r0+rows > R {
		rows = R - r0
	}
	if c0+cols > C {
		cols = C - c0
	}
	return r0, c0, rows, cols
}

// LowerBoundRatio returns the ratio of the plan's per-process
// communication volume (by the surface measure of eq. 4, divided by
// active processes) to the lower bound Q of eq. (9) — the "Comm.
// volume / lower bound" line of the reference implementation's output.
func (p *Plan) LowerBoundRatio() float64 {
	// At the optimal cubic grid the total surface 6(mnk)^{2/3}P^{1/3}
	// equals 2·P·Q with Q from eq. (9), so the ratio is exactly 1.
	act := float64(p.ActiveProcs())
	return float64(grid.SurfaceCost(p.M, p.N, p.K, p.G)) /
		(2 * act * grid.CommLowerBound(p.M, p.N, p.K, p.ActiveProcs()))
}

// WorkCuboid returns the per-process work cuboid dimensions
// (mb x nb x kb), the "Work cuboid" line of the reference output.
func (p *Plan) WorkCuboid() (mb, nb, kb int) {
	return ceilDiv(p.M, p.G.Pm), ceilDiv(p.N, p.G.Pn), ceilDiv(p.K, p.G.Pk)
}

// Utilization returns the fraction of processes doing compute.
func (p *Plan) Utilization() float64 {
	return float64(p.ActiveProcs()) / float64(p.P)
}

// SpareRanks returns the number of idle processes — the hot-spare pool
// the elastic recovery ladder can promote into compute slots without
// replanning (the planner's natural idle tail plus any ranks held back
// via Options.ReservedSpares).
func (p *Plan) SpareRanks() int { return p.P - p.ActiveProcs() }

// MemoryModel returns the predicted per-process memory usage in
// matrix elements from eq. (11): 2(c·mk + kn)/P + pk·mn/P, evaluated
// with the plan's actual grid (P = active processes). When B is the
// replicated matrix the roles of mk and kn swap.
func (p *Plan) MemoryModel() float64 {
	act := float64(p.ActiveProcs())
	mk := float64(p.M) * float64(p.K)
	kn := float64(p.K) * float64(p.N)
	mn := float64(p.M) * float64(p.N)
	c := float64(p.Crep)
	var ab float64
	if p.RepA {
		ab = 2 * (c*mk + kn) / act
	} else {
		ab = 2 * (mk + c*kn) / act
	}
	return ab + float64(p.G.Pk)*mn/act
}
