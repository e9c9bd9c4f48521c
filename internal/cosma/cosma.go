// Package cosma implements a COSMA-style PGEMM baseline following the
// description in Section III-C of the CA3DMM paper.
//
// The COSMA source code "can be considered as a generalized CARMA":
// it finds an optimal or near-optimal 3D grid pm x pk x pn with
// m/pm ≈ k/pk ≈ n/pn (no Cannon divisibility constraint), factorizes
// the grid dimensions into a sequence of splitting steps, replicates A
// and/or B with allgather operations, performs exactly one local
// multiplication per process, and reduce-scatters the pk partial C
// results. Unlike CA3DMM, there is no Cannon stage: the inputs are
// fully replicated across the process dimensions that need them before
// any computation, which is why COSMA's memory use does not shrink
// with the replication-free Cannon pipelining (paper Table I).
package cosma

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/grid"
)

// Options configures plan construction.
type Options struct {
	// Grid forces a specific process grid (as in paper Table II).
	Grid grid.Grid
	// LowerUtil is the utilization bound (0 = 0.95, as for CA3DMM).
	LowerUtil float64
}

// Plan is the schedule (grid, groups, native layouts) plus COSMA's
// splitting steps.
type Plan struct {
	*core.Schedule
	// Steps is the factorized splitting sequence (informational; the
	// schedule's collectives realize the same data movement).
	Steps []Step
}

// Step is one splitting step of the COSMA strategy.
type Step struct {
	Dim   byte // 'm', 'n', or 'k'
	Parts int  // prime factor
}

// NewPlan builds a COSMA-style plan.
func NewPlan(m, n, k, p int, transA, transB bool, opt Options) (*Plan, error) {
	if err := core.CheckDims("cosma", m, n, k, p); err != nil {
		return nil, err
	}
	g := opt.Grid
	if g.Procs() == 0 {
		var err error
		g, err = grid.Optimize(m, n, k, p, grid.Options{
			LowerUtil:          opt.LowerUtil,
			NoCannonConstraint: true,
		})
		if err != nil {
			return nil, err
		}
	} else if g.Procs() > p {
		return nil, fmt.Errorf("cosma: forced grid %v needs %d > %d processes", g, g.Procs(), p)
	}
	pl := &Plan{Schedule: core.NewSchedule(m, n, k, p, transA, transB, g)}
	pl.Repl = core.ReplAllgather
	// Factorize the grid into splitting steps, largest dimension
	// first (COSMA generalizes CARMA's bisection to multi-way splits).
	for _, f := range grid.Factorize(g.Pk) {
		pl.Steps = append(pl.Steps, Step{Dim: 'k', Parts: f})
	}
	for _, f := range grid.Factorize(g.Pm) {
		pl.Steps = append(pl.Steps, Step{Dim: 'm', Parts: f})
	}
	for _, f := range grid.Factorize(g.Pn) {
		pl.Steps = append(pl.Steps, Step{Dim: 'n', Parts: f})
	}
	for r := 0; r < g.Procs(); r++ {
		pl.planRank(r)
	}
	return pl, nil
}

// planRank places rank r at position (i, j, g) of the pm x pn x pk grid
// (k-task group outermost, matching CA3DMM) and assigns its native
// blocks, which hold exactly one copy of A and B: the A block (mi, kg)
// needed by the pn ranks of a row is column-split pn ways; the B block
// (kg, nj) is row-split pm ways; the final C block (mi, nj) is
// column-split pk ways. COSMA completes all input replication before
// any local computation ("COSMA first replicates A and/or B ... then
// calculates one local matrix multiplication").
func (p *Plan) planRank(r int) {
	pm, pn, pk := p.G.Pm, p.G.Pn, p.G.Pk
	g, lr := r/(pm*pn), r%(pm*pn)
	i, j := lr%pm, lr/pm
	m0, m1 := dist.BlockRange(p.M, pm, i)
	n0, n1 := dist.BlockRange(p.N, pn, j)
	k0, k1 := dist.BlockRange(p.K, pk, g)

	rp := &p.Ranks[r]
	rp.PanelM, rp.PanelK, rp.PanelN = m1-m0, k1-k0, n1-n0
	if pn > 1 {
		rp.ARepl = core.Group{Color: g*pm + i, Key: j} // same (g,i): A sharers across j
	}
	if pm > 1 {
		rp.BRepl = core.Group{Color: g*pn + j, Key: i} // same (g,j): B sharers across i
	}
	if pk > 1 {
		rp.CRed = core.Group{Color: i*pn + j, Key: g} // same (i,j): C partials across g
	}

	lo, hi := dist.BlockRange(k1-k0, pn, j)
	p.ALayout.SetBlock(r, m0, k0+lo, dist.ZeroIf(m1-m0, hi-lo), hi-lo)
	lo, hi = dist.BlockRange(k1-k0, pm, i)
	p.BLayout.SetBlock(r, k0+lo, n0, hi-lo, dist.ZeroIf(n1-n0, hi-lo))
	lo, hi = dist.BlockRange(n1-n0, pk, g)
	p.CLayout.SetBlock(r, m0, n0+lo, dist.ZeroIf(m1-m0, hi-lo), hi-lo)
}

// MemoryModel returns COSMA's per-process memory in elements: fully
// replicated A and B blocks plus the partial and final C blocks.
func (p *Plan) MemoryModel() float64 {
	act := float64(p.ActiveProcs())
	mk := float64(p.M) * float64(p.K)
	kn := float64(p.K) * float64(p.N)
	mn := float64(p.M) * float64(p.N)
	// A block (m/pm)(k/pk) = mk*pn/P; B block kn*pm/P; partial C
	// mn*pk/P; plus the one-copy natives.
	return (mk*float64(p.G.Pn) + kn*float64(p.G.Pm) + mn*float64(p.G.Pk)) / act
}
