// Package carma implements the CARMA algorithm (Demmel et al., 2013):
// communication-optimal recursive matrix multiplication.
//
// CARMA recursively bisects the largest dimension of the current
// subproblem and assigns each half to half of the processes, so the
// process count must be a power of two. Each m- or n-bisection
// replicates the opposite input matrix between the halves; each
// k-bisection requires summing the two partial C results. At the leaf
// (one process per subproblem) a local multiplication runs.
//
// In this runtime the per-level pairwise exchanges are expressed as
// recursive-doubling allgathers / recursive-halving reduce-scatters
// over the replication groups, which for power-of-two groups lower to
// exactly the pairwise partner exchanges CARMA performs.
package carma

import (
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/grid"
)

// Dim identifies the dimension bisected at a recursion level.
type Dim int

// Bisected dimensions.
const (
	DimM Dim = iota
	DimK
	DimN
)

func (d Dim) String() string { return [...]string{"m", "k", "n"}[d] }

// Plan is the schedule (each rank's leaf subproblem, sharer groups and
// native blocks; G is the bisection-equivalent grid) plus the recursion
// that produced it.
type Plan struct {
	*core.Schedule
	Splits []Dim // the bisected dimension per recursion level
}

// NewPlan builds a CARMA plan. p must be a power of two (the
// algorithm's documented restriction).
func NewPlan(m, n, k, p int, transA, transB bool) (*Plan, error) {
	if err := core.CheckDims("carma", m, n, k, p); err != nil {
		return nil, err
	}
	if p&(p-1) != 0 {
		return nil, fmt.Errorf("carma: process count %d is not a power of two", p)
	}
	// Decide the split sequence on the global problem: always bisect
	// the (currently) largest dimension, ties broken m > n > k as a
	// fixed convention.
	var splits []Dim
	g := grid.Grid{Pm: 1, Pn: 1, Pk: 1}
	cm, cn, ck := m, n, k
	for ℓ := bits.TrailingZeros(uint(p)); ℓ > 0; ℓ-- {
		switch {
		case cm >= cn && cm >= ck:
			splits = append(splits, DimM)
			cm = (cm + 1) / 2
			g.Pm *= 2
		case cn >= ck:
			splits = append(splits, DimN)
			cn = (cn + 1) / 2
			g.Pn *= 2
		default:
			splits = append(splits, DimK)
			ck = (ck + 1) / 2
			g.Pk *= 2
		}
	}
	pl := &Plan{Schedule: core.NewSchedule(m, n, k, p, transA, transB, g), Splits: splits}
	pl.Repl = core.ReplAllgather
	for r := 0; r < p; r++ {
		pl.planRank(r)
	}
	return pl, nil
}

// planRank walks rank r down the split tree to its leaf subproblem and
// assigns its groups and native blocks. Level ℓ corresponds to rank bit
// L-1-ℓ, so sibling halves are contiguous rank ranges. The ranks
// sharing a leaf block differ exactly in the levels that split the
// dimension the block does not have: A(mr, kr) is shared across the
// n-split levels, B(kr, nr) across the m-split levels, and the partial
// C(mr, nr) across the k-split levels. Each sharer initially holds a
// 1/(sharers) strip of the block, so all ranks together hold exactly
// one copy of each input, and finally a 1/(k-sharers) strip of C.
func (p *Plan) planRank(r int) {
	L := len(p.Splits)
	mr, kr, nr := [2]int{0, p.M}, [2]int{0, p.K}, [2]int{0, p.N}
	var mask [3]int // bit ℓ set: level ℓ split that Dim
	for ℓ, d := range p.Splits {
		side := (r >> (L - 1 - ℓ)) & 1
		mask[d] |= 1 << ℓ
		switch d {
		case DimM:
			mr = half(mr, side)
		case DimK:
			kr = half(kr, side)
		case DimN:
			nr = half(nr, side)
		}
	}
	mSz, kSz, nSz := mr[1]-mr[0], kr[1]-kr[0], nr[1]-nr[0]
	rp := &p.Ranks[r]
	rp.PanelM, rp.PanelK, rp.PanelN = mSz, kSz, nSz

	// share returns the rank's group among the 2^b ranks differing in
	// the levels of mask (key read MSB-first by level so keys are
	// contiguous under recursive doubling; color = the rank with those
	// bits cleared) and its strip of an n-wide extent.
	share := func(mask, n int) (g core.Group, lo, hi int) {
		if mask == 0 {
			return core.NoGroup, 0, n
		}
		g.Color, lo, hi = r, 0, 1
		for ℓ := 0; ℓ < L; ℓ++ {
			if mask&(1<<ℓ) != 0 {
				g.Key = g.Key<<1 | (r>>(L-1-ℓ))&1
				g.Color &^= 1 << (L - 1 - ℓ)
				hi <<= 1
			}
		}
		lo, hi = dist.BlockRange(n, hi, g.Key)
		return g, lo, hi
	}
	var lo, hi int
	rp.ARepl, lo, hi = share(mask[DimN], kSz)
	p.ALayout.SetBlock(r, mr[0], kr[0]+lo, dist.ZeroIf(mSz, hi-lo), hi-lo)
	rp.BRepl, lo, hi = share(mask[DimM], kSz)
	p.BLayout.SetBlock(r, kr[0]+lo, nr[0], hi-lo, dist.ZeroIf(nSz, hi-lo))
	rp.CRed, lo, hi = share(mask[DimK], nSz)
	p.CLayout.SetBlock(r, mr[0], nr[0]+lo, dist.ZeroIf(mSz, hi-lo), hi-lo)
}

func half(r [2]int, side int) [2]int {
	lo, hi := r[0], r[1]
	mid := lo + (hi-lo+1)/2
	if side == 0 {
		return [2]int{lo, mid}
	}
	return [2]int{mid, hi}
}
