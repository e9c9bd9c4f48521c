package core

import (
	"fmt"
	"time"

	"repro/internal/dist"
	"repro/internal/grid"
	"repro/internal/mat"
	"repro/internal/mpi"
)

// Schedule is the paper's unified view of a parallel multiplication
// (Section III) as a value: a pm x pn x pk process grid, the native
// distributions of op(A), op(B) and C, a replication step that
// completes each rank's A and B blocks from the strips its sharers
// hold, a 2D inner kernel, and a reduce-scatter of the pk partial C
// blocks. Algorithm 1 is the general case; COSMA, CARMA, the 1D and
// original 3D algorithms, 2.5D and SUMMA are the same value with some
// of the steps degenerate. Each algorithm's planner emits one
// Schedule; ExecState is the only code that runs it.
type Schedule struct {
	M, N, K        int // C (MxN) = op(A) (MxK) · op(B) (KxN)
	TransA, TransB bool
	P              int       // world size
	G              grid.Grid // ranks [0, G.Procs()) compute, the rest idle

	// Native layouts of op(A), op(B) and C over all P ranks: exactly one
	// copy of each input (replication happens at run time), a final C
	// partitioned across the active ranks. Idle ranks own nothing but
	// take part in redistribution.
	ALayout, BLayout, CLayout *dist.Explicit
	// ASpread and BSpread, when non-nil, are the working layouts of the
	// algorithms that store their inputs on the k=0 face only (2.5D, the
	// original 3D algorithm): the executor moves A and B from the native
	// face layouts into these per-layer k-slices before replicating.
	ASpread, BSpread *dist.Explicit

	Repl   Replication
	Kernel Kernel

	// Ranks holds every world rank's place in the schedule; idle ranks
	// keep the zero panel and NoGroup everywhere.
	Ranks []RankPlan
}

// Replication is how a rank's A and B blocks are completed from the
// strips held by the members of its ARepl and BRepl groups: A blocks
// are split by columns, B blocks by rows, member q holding strip q.
type Replication int

// Replication kinds.
const (
	// ReplNone: every rank already holds its full blocks.
	ReplNone Replication = iota
	// ReplAllgather: one allgather of the strips per operand (CA3DMM,
	// COSMA, CARMA, 1D).
	ReplAllgather
	// ReplBcast: one broadcast per strip, rooted at its owner (the
	// original 3D algorithm; twice the allgather's volume under the
	// butterfly model, which is the point of that baseline).
	ReplBcast
)

func (r Replication) String() string {
	return [...]string{"none", "allgather", "bcast"}[r]
}

// Kernel is the 2D algorithm each inner group runs on its panel.
type Kernel int

// Inner kernels.
const (
	// KernelLocal: the inner group is the rank itself — one local GEMM
	// of the replicated blocks.
	KernelLocal Kernel = iota
	// KernelCannon: Cannon's algorithm on a square s x s group,
	// s = min(pm, pn), blocks zero-padded to the uniform ceiling size.
	KernelCannon
	// KernelSUMMA: SUMMA on the pm x pn group.
	KernelSUMMA
)

func (k Kernel) String() string {
	return [...]string{"gemm", "cannon", "summa"}[k]
}

// Group places a rank in one communicator of the schedule: ranks with
// equal Color form the group, ordered by Key (0..size-1), exactly the
// arguments of Comm.Split.
type Group struct{ Color, Key int }

// NoGroup marks a rank that is not a member of a group — idle ranks,
// and every rank when the group would be a singleton.
var NoGroup = Group{Color: mpi.Undefined}

// RankPlan is one rank's place in a schedule.
type RankPlan struct {
	// PanelM x PanelK x PanelN is the sub-multiplication the rank's
	// inner group computes: the rank's own work cuboid for KernelLocal,
	// the Cannon or SUMMA group's panel otherwise.
	PanelM, PanelK, PanelN int
	// ARepl and BRepl are the sharers of the rank's A and B blocks,
	// CRed the ranks holding partial sums of its C block (the block is
	// column-split across them, member g keeping part g), and Inner the
	// kernel group in row-major grid order (unused by KernelLocal).
	ARepl, BRepl, CRed, Inner Group
}

// NewSchedule returns a schedule of the given shape and grid with empty
// layouts and every rank idle, for a planner to fill in.
func NewSchedule(m, n, k, p int, transA, transB bool, g grid.Grid) *Schedule {
	s := &Schedule{
		M: m, N: n, K: k, TransA: transA, TransB: transB, P: p, G: g,
		ALayout: dist.NewExplicit(m, k, p),
		BLayout: dist.NewExplicit(k, n, p),
		CLayout: dist.NewExplicit(m, n, p),
		Ranks:   make([]RankPlan, p),
	}
	for r := range s.Ranks {
		s.Ranks[r] = RankPlan{ARepl: NoGroup, BRepl: NoGroup, CRed: NoGroup, Inner: NoGroup}
	}
	return s
}

// CheckDims rejects the inputs no planner accepts, under the planner's
// name.
func CheckDims(who string, m, n, k, p int) error {
	if m <= 0 || n <= 0 || k <= 0 {
		return fmt.Errorf("%s: invalid dimensions %dx%dx%d", who, m, k, n)
	}
	if p <= 0 {
		return fmt.Errorf("%s: invalid process count %d", who, p)
	}
	return nil
}

// ActiveProcs returns the number of non-idle processes, pm*pn*pk.
func (s *Schedule) ActiveProcs() int { return s.G.Procs() }

// Execute runs the schedule once on the calling rank: NewState plus one
// Execute. Collective over c. Callers that multiply the same shape
// repeatedly keep the ExecState instead.
func (s *Schedule) Execute(c *mpi.Comm, opt Options, aLocal *mat.Dense, aLayout dist.Layout,
	bLocal *mat.Dense, bLayout dist.Layout, cLayout dist.Layout) (*mat.Dense, StageTimes) {
	return NewState(c, s, opt).Execute(aLocal, aLayout, bLocal, bLayout, nil, cLayout)
}

// StageTimes is the per-rank stage breakdown of one execution, in the
// vocabulary of the reference implementation's report. Kernel
// communication (Cannon's skew and shifts, SUMMA's panel broadcasts)
// and the 2.5D/3D k-slice spread count as replication, as in the
// paper's Fig. 5.
type StageTimes struct {
	Redistribute time.Duration // A, B, C user-layout conversion
	ReplicateAB  time.Duration // allgather/broadcast of inputs + shifts
	LocalCompute time.Duration
	ReduceC      time.Duration
	Total        time.Duration
	MatmulOnly   time.Duration // Total minus Redistribute
}
