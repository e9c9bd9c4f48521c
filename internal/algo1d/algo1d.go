// Package algo1d implements the classical 1D parallel matrix
// multiplication algorithms of the paper's Section II: partition only
// the m-, n-, or k-dimension.
//
//   - SplitM: A and C are row-partitioned; B is replicated (allgather).
//   - SplitN: B and C are column-partitioned; A is replicated.
//   - SplitK: A is column- and B is row-partitioned; every rank
//     computes a full partial C and a reduce-scatter sums them.
//
// "Matrix multiplications involving tall-and-skinny matrices usually
// use 1D algorithms" — these are the optimal algorithms CA3DMM's
// unified view degenerates to, and the package exists so tests and
// benchmarks can verify that claim (CA3DMM's communication volume and
// pattern match the best 1D variant on degenerate shapes).
package algo1d

import (
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/grid"
)

// Variant selects the partitioned dimension.
type Variant int

// Variants.
const (
	// Auto picks the variant with the least replicated/reduced data.
	Auto Variant = iota
	// SplitM partitions rows of A and C; B is replicated.
	SplitM
	// SplitN partitions columns of B and C; A is replicated.
	SplitN
	// SplitK partitions the inner dimension; C is reduced.
	SplitK
)

func (v Variant) String() string {
	return [...]string{"auto", "1d-m", "1d-n", "1d-k"}[v]
}

// Choose returns the cheapest variant for the given shape: the
// replicated matrix (or reduced C) is the communication volume, so
// pick the smallest of kn (SplitM), mk (SplitN), and mn (SplitK).
func Choose(m, n, k int) Variant {
	kn := int64(k) * int64(n)
	mk := int64(m) * int64(k)
	mn := int64(m) * int64(n)
	switch {
	case kn <= mk && kn <= mn:
		return SplitM
	case mk <= mn:
		return SplitN
	default:
		return SplitK
	}
}

// Plan is the schedule of a 1D multiplication — a P x 1 x 1, 1 x P x 1
// or 1 x 1 x P grid whose one group is the whole world — plus the
// variant that chose it.
type Plan struct {
	*core.Schedule
	V Variant
}

// NewPlan builds a 1D plan. v = Auto selects the cheapest variant.
// Exactly one copy of each input exists initially; the replicated
// matrix starts partitioned along the k dimension so the allgather is
// balanced.
func NewPlan(m, n, k, p int, transA, transB bool, v Variant) (*Plan, error) {
	if err := core.CheckDims("algo1d", m, n, k, p); err != nil {
		return nil, err
	}
	if v == Auto {
		v = Choose(m, n, k)
	}
	g := grid.Grid{Pm: 1, Pn: 1, Pk: 1}
	switch v {
	case SplitM:
		g.Pm = p
	case SplitN:
		g.Pn = p
	case SplitK:
		g.Pk = p
	}
	pl := &Plan{Schedule: core.NewSchedule(m, n, k, p, transA, transB, g), V: v}
	if v != SplitK {
		pl.Repl = core.ReplAllgather
	}
	for r := 0; r < p; r++ {
		rp := &pl.Ranks[r]
		all := core.NoGroup
		if p > 1 {
			all = core.Group{Key: r}
		}
		m0, m1 := dist.BlockRange(m, p, r)
		n0, n1 := dist.BlockRange(n, p, r)
		k0, k1 := dist.BlockRange(k, p, r)
		switch v {
		case SplitM:
			// Allgather B (k-partitioned rows), multiply my A rows.
			rp.PanelM, rp.PanelK, rp.PanelN, rp.BRepl = m1-m0, k, n, all
			pl.ALayout.SetBlock(r, m0, 0, m1-m0, dist.ZeroIf(k, m1-m0))
			pl.BLayout.SetBlock(r, k0, 0, k1-k0, dist.ZeroIf(n, k1-k0))
			pl.CLayout.SetBlock(r, m0, 0, m1-m0, dist.ZeroIf(n, m1-m0))
		case SplitN:
			// Allgather A (k-partitioned columns), multiply my B columns.
			rp.PanelM, rp.PanelK, rp.PanelN, rp.ARepl = m, k, n1-n0, all
			pl.ALayout.SetBlock(r, 0, k0, dist.ZeroIf(m, k1-k0), k1-k0)
			pl.BLayout.SetBlock(r, 0, n0, dist.ZeroIf(k, n1-n0), n1-n0)
			pl.CLayout.SetBlock(r, 0, n0, dist.ZeroIf(m, n1-n0), n1-n0)
		case SplitK:
			// Full partial C per rank, then reduce-scatter by columns.
			rp.PanelM, rp.PanelK, rp.PanelN, rp.CRed = m, k1-k0, n, all
			pl.ALayout.SetBlock(r, 0, k0, dist.ZeroIf(m, k1-k0), k1-k0)
			pl.BLayout.SetBlock(r, k0, 0, k1-k0, dist.ZeroIf(n, k1-k0))
			pl.CLayout.SetBlock(r, 0, n0, dist.ZeroIf(m, n1-n0), n1-n0)
		}
	}
	return pl, nil
}
