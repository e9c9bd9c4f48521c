// Package algo3d implements the original 3D matrix multiplication
// algorithm (Agarwal, Balle, Gustavson, Joshi & Palkar, 1995).
//
// The paper's Section III-C places it precisely: like COSMA it fully
// replicates the inputs before one local multiplication, "but it uses
// one broadcast operation to replicate A and one broadcast operation
// to replicate B" — and under the butterfly cost model a broadcast
// moves 2βn(P-1)/P against the allgather's βn(P-1)/P, which is exactly
// the inefficiency COSMA's allgather formulation removes. This package
// exists to make that comparison measurable
// (BenchmarkAblationReplication in the root package).
//
// Grid: pm x pn x pk with inputs stored only on the pk=0 face (the
// paper notes the original 3D algorithm stores matrices "only on a
// subset of processes"); A is broadcast along the n-dimension fibers,
// B along the m-dimension fibers, and partial C reduced along the
// k-dimension fibers.
package algo3d

import (
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/grid"
)

// Plan is the original-3D schedule: the native layouts are 2D blocks on
// the k=0 storage face, the spread layouts one k-slice per grid layer.
type Plan struct {
	*core.Schedule
}

// NewPlan builds an original-3D plan: the grid is the unconstrained
// surface-optimal cuboid (the algorithm predates idle-process tricks,
// so utilization follows the same bound as the other planners).
func NewPlan(m, n, k, p int, transA, transB bool) (*Plan, error) {
	if err := core.CheckDims("algo3d", m, n, k, p); err != nil {
		return nil, err
	}
	g, err := grid.Optimize(m, n, k, p, grid.Options{NoCannonConstraint: true})
	if err != nil {
		return nil, err
	}
	pl := &Plan{core.NewSchedule(m, n, k, p, transA, transB, g)}
	pl.Repl = core.ReplBcast
	pl.ASpread = dist.NewExplicit(m, k, p)
	pl.BSpread = dist.NewExplicit(k, n, p)
	for r := 0; r < g.Procs(); r++ {
		pl.planRank(r)
	}
	return pl, nil
}

// planRank places rank r at (i, j, g) of the pm x pn x pk grid, k-layer
// outermost (layer 0 = the storage face). A is broadcast along the
// n-dimension fibers, B along the m-dimension fibers, and partial C
// reduced along the k-dimension fibers. The original algorithm roots
// each broadcast at the fiber member holding the piece; with the
// 2D-blocked slice, member jj of a row fiber holds columns
// BlockRange(kg, pn, jj) of A(mi, kg), so pn broadcasts reassemble the
// block — one broadcast operation per source, as the paper describes.
func (p *Plan) planRank(r int) {
	pm, pn, pk := p.G.Pm, p.G.Pn, p.G.Pk
	g, lr := r/(pm*pn), r%(pm*pn)
	i, j := lr/pn, lr%pn
	m0, m1 := dist.BlockRange(p.M, pm, i)
	n0, n1 := dist.BlockRange(p.N, pn, j)
	k0, k1 := dist.BlockRange(p.K, pk, g)

	rp := &p.Ranks[r]
	rp.PanelM, rp.PanelK, rp.PanelN = m1-m0, k1-k0, n1-n0
	if pn > 1 {
		rp.ARepl = core.Group{Color: g*pm + i, Key: j} // same (g, i), varying j
	}
	if pm > 1 {
		rp.BRepl = core.Group{Color: g*pn + j, Key: i} // same (g, j), varying i
	}
	if pk > 1 {
		rp.CRed = core.Group{Color: i*pn + j, Key: g} // same (i, j), varying g
	}

	if g == 0 {
		// Storage face: A 2D-blocked over (pm, pn) and B over
		// (pm, pn) by their own shapes.
		lo, hi := dist.BlockRange(p.K, pn, j)
		p.ALayout.SetBlock(r, m0, lo, dist.ZeroIf(m1-m0, hi-lo), hi-lo)
		lo, hi = dist.BlockRange(p.K, pm, i)
		p.BLayout.SetBlock(r, lo, n0, hi-lo, dist.ZeroIf(n1-n0, hi-lo))
	}
	// Working slices: layer g holds the k-range g of A's columns
	// (2D-blocked over pm x pn within the layer) and of B's rows.
	lo, hi := dist.BlockRange(k1-k0, pn, j)
	p.ASpread.SetBlock(r, m0, k0+lo, dist.ZeroIf(m1-m0, hi-lo), hi-lo)
	lo, hi = dist.BlockRange(k1-k0, pm, i)
	p.BSpread.SetBlock(r, k0+lo, n0, hi-lo, dist.ZeroIf(n1-n0, hi-lo))
	// Final C: the (i, j) block column-split across layers.
	lo, hi = dist.BlockRange(n1-n0, pk, g)
	p.CLayout.SetBlock(r, m0, n0+lo, dist.ZeroIf(m1-m0, hi-lo), hi-lo)
}
