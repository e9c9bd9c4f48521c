// Package c25d implements the 2.5D matrix multiplication algorithm
// (Solomonik & Demmel, 2011) as used by the Cyclops Tensor Framework,
// serving as the CTF baseline of the CA3DMM paper's experiments.
//
// The process grid is p x p x c: c replication layers, each a square
// p x p 2D grid. Inputs are stored 2D-blocked on layer 0 only (as the
// paper notes for the original 3D and 2.5D algorithms, "the matrices
// are only stored on a subset of processes"). Each layer receives one
// 1/c slice of the k dimension, computes its partial C with SUMMA on
// its p x p grid, and the partial results are reduce-scattered across
// layers. c = 1 degenerates to plain SUMMA; c = p to the original 3D
// algorithm.
//
// Unlike COSMA and CA3DMM the grid shape is constrained to p x p x c
// regardless of the matrix shapes — the rigidity that makes CTF's
// efficiency "less satisfying" on nonsquare problems in the paper's
// Fig. 3 ("its process grid and matrix decomposition may be far from
// optimal").
package c25d

import (
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/grid"
)

// Plan is the 2.5D schedule — a p x p x c grid with SUMMA as the inner
// kernel of each layer; the native layouts are 2D blocks on layer 0,
// the spread layouts each layer's k-slice — plus the grid in the
// algorithm's own terms.
type Plan struct {
	*core.Schedule
	Side   int // p: side of each square layer grid
	Layers int // c: number of replication layers
}

// ChooseGrid picks the 2.5D grid for P processes: maximize the active
// count p*p*c subject to c <= p (the classical 2.5D constraint), then
// prefer the larger p. Matrix dimensions cap p and c.
func ChooseGrid(m, n, k, procs int) (side, layers int) {
	best, bestSide, bestLayers := 0, 1, 1
	for p := 1; p*p <= procs; p++ {
		if p > m || p > n {
			break
		}
		c := procs / (p * p)
		if c > p {
			c = p
		}
		if c > k {
			c = k
		}
		if c < 1 {
			c = 1
		}
		active := p * p * c
		if active > best || (active == best && p > bestSide) {
			best, bestSide, bestLayers = active, p, c
		}
	}
	return bestSide, bestLayers
}

// NewPlan builds a 2.5D plan on p processes.
func NewPlan(m, n, k, p int, transA, transB bool) (*Plan, error) {
	if err := core.CheckDims("c25d", m, n, k, p); err != nil {
		return nil, err
	}
	side, layers := ChooseGrid(m, n, k, p)
	g := grid.Grid{Pm: side, Pn: side, Pk: layers}
	pl := &Plan{Schedule: core.NewSchedule(m, n, k, p, transA, transB, g), Side: side, Layers: layers}
	pl.Kernel = core.KernelSUMMA
	pl.ASpread = dist.NewExplicit(m, k, p)
	pl.BSpread = dist.NewExplicit(k, n, p)
	for r := 0; r < g.Procs(); r++ {
		pl.planRank(r)
	}
	return pl, nil
}

// planRank places rank r at (layer, row, col); layer 0 occupies the
// first p*p ranks and stores the inputs. Layer ℓ works on k-range ℓ,
// SUMMA 2D-blocked within the layer, and keeps part ℓ of each C block's
// column split across layers.
func (p *Plan) planRank(r int) {
	s := p.Side
	layer, lr := r/(s*s), r%(s*s)
	i, j := lr/s, lr%s
	k0, k1 := dist.BlockRange(p.K, p.Layers, layer)

	rp := &p.Ranks[r]
	rp.PanelM, rp.PanelK, rp.PanelN = p.M, k1-k0, p.N
	rp.Inner = core.Group{Color: layer, Key: lr}
	if p.Layers > 1 {
		rp.CRed = core.Group{Color: lr, Key: layer}
	}

	m0, m1 := dist.BlockRange(p.M, s, i)
	n0, n1 := dist.BlockRange(p.N, s, j)
	if layer == 0 {
		lo, hi := dist.BlockRange(p.K, s, j)
		p.ALayout.SetBlock(r, m0, lo, m1-m0, hi-lo)
		lo, hi = dist.BlockRange(p.K, s, i)
		p.BLayout.SetBlock(r, lo, n0, hi-lo, n1-n0)
	}
	// Shapes are recorded exactly (even when a dimension is zero)
	// because the SUMMA kernel checks its block shapes.
	lo, hi := dist.BlockRange(k1-k0, s, j)
	p.ASpread.SetBlock(r, m0, k0+lo, m1-m0, hi-lo)
	lo, hi = dist.BlockRange(k1-k0, s, i)
	p.BSpread.SetBlock(r, k0+lo, n0, hi-lo, n1-n0)
	lo, hi = dist.BlockRange(n1-n0, p.Layers, layer)
	if m1 > m0 && hi > lo {
		p.CLayout.SetBlock(r, m0, n0+lo, m1-m0, hi-lo)
	}
}
