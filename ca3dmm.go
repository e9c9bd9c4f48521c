// Package ca3dmm is a Go implementation of CA3DMM, the
// Communication-Avoiding 3D Matrix Multiplication algorithm of Huang
// and Chow (SC 2022), together with the baselines the paper compares
// against (COSMA-style, CARMA, SUMMA, and the 2.5D algorithm used by
// CTF), a goroutine-based message-passing runtime standing in for MPI,
// and a cluster cost model that reproduces the paper's large-scale
// experiments.
//
// The quickest entry point multiplies two global matrices on p
// simulated processes and gathers the result:
//
//	a := ca3dmm.Random(4000, 4000, 1)
//	b := ca3dmm.Random(4000, 4000, 2)
//	c, report, stages, err := ca3dmm.Multiply(a, b, 16, ca3dmm.Config{})
//
// For distributed use, build a Plan once and Execute it from every
// rank of an mpi.Run world with the layouts of your choice; see the
// examples directory.
package ca3dmm

import (
	"fmt"
	"io"
	"time"

	"repro/internal/abft"
	"repro/internal/algo1d"
	"repro/internal/algo3d"
	"repro/internal/c25d"
	"repro/internal/carma"
	"repro/internal/core"
	"repro/internal/cosma"
	"repro/internal/dist"
	"repro/internal/grid"
	"repro/internal/mat"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// Re-exported building blocks. The whole implementation lives under
// internal/; these aliases are the supported public surface.
type (
	// Matrix is a dense row-major float64 matrix.
	Matrix = mat.Dense
	// Layout describes how a global matrix is distributed over ranks.
	Layout = dist.Layout
	// Comm is a communicator of the message-passing runtime.
	Comm = mpi.Comm
	// Grid is a 3D process grid.
	Grid = grid.Grid
	// TraceRecorder is the unified observability recorder: algorithm
	// stage spans, per-collective comm spans with byte volumes, and
	// fault/recovery instant events on one per-rank timeline. Attach
	// one via Config.Trace (or ResilientConfig.Trace); export with
	// WriteChrome (Perfetto), WritePrometheus, or BuildReport.
	TraceRecorder = obs.Recorder
	// ObsReport is the machine-readable analysis of a recorded run:
	// per-stage totals with load-imbalance ratios, the stage x op
	// communication breakdown, per-rank utilisation, and the critical
	// path. Produced by TraceRecorder.BuildReport, rendered and diffed
	// by cmd/ca3dmm-profile.
	ObsReport = obs.Report
)

// NewTraceRecorder returns an empty observability recorder.
func NewTraceRecorder() *TraceRecorder { return obs.NewRecorder() }

// ValidateChromeTrace decodes a Chrome trace-event JSON stream (as
// written by TraceRecorder.WriteChrome) and verifies its structural
// invariants, returning the event count.
func ValidateChromeTrace(r io.Reader) (int, error) { return obs.ValidateChrome(r) }

// GemmFlopCount returns the cumulative floating-point operations
// executed by the local GEMM engine since process start (2mnk per
// multiplication), process-wide across all ranks and threads.
func GemmFlopCount() int64 { return mat.GemmFlopCount() }

// NewMatrix returns a zeroed r x c matrix.
func NewMatrix(r, c int) *Matrix { return mat.New(r, c) }

// Random returns an r x c matrix with entries uniform in [-1, 1),
// deterministic in seed.
func Random(r, c int, seed uint64) *Matrix { return mat.Random(r, c, seed) }

// SetGemmThreads sets the worker count of the local GEMM engine (the
// OMP_NUM_THREADS analogue for hybrid "1 rank x t threads" modes) and
// returns the previous value. n < 1 is treated as 1. Safe to call
// concurrently with in-flight multiplications; results are
// bit-identical for every thread count. Distributed ranks always use
// the serial path, so this only affects direct Gemm calls.
func SetGemmThreads(n int) int { return mat.SetGemmThreads(n) }

// GemmThreads returns the current local GEMM worker count.
func GemmThreads() int { return mat.GemmThreads() }

// Gemm computes C = alpha*op(A)*op(B) + beta*C locally on the packed
// engine, parallelized over GemmThreads() workers — the library's
// shared-memory fast path for callers that do not need distributed
// execution.
func Gemm(transA, transB bool, alpha float64, a, b *Matrix, beta float64, c *Matrix) {
	ta, tb := mat.NoTrans, mat.NoTrans
	if transA {
		ta = mat.Trans
	}
	if transB {
		tb = mat.Trans
	}
	mat.Gemm(ta, tb, alpha, a, b, beta, c)
}

// Run starts a p-rank world and executes fn on every rank, returning
// per-rank communication statistics.
func Run(p int, fn func(*Comm)) (*mpi.Report, error) { return mpi.Run(p, fn) }

// Standard layout constructors.

// RowBlocks is a 1D partition of rows into p balanced blocks.
func RowBlocks(rows, cols, p int) Layout { return dist.Block1DRow{R: rows, C: cols, P: p} }

// ColBlocks is a 1D partition of columns into p balanced blocks (the
// layout of the reference implementation's example program).
func ColBlocks(rows, cols, p int) Layout { return dist.Block1DCol{R: rows, C: cols, P: p} }

// Blocks2D is a pr x pc 2D block partition (row-major rank order).
func Blocks2D(rows, cols, pr, pc, p int) Layout {
	return dist.Block2D{R: rows, C: cols, Pr: pr, Pc: pc, P: p}
}

// BlockCyclic is the ScaLAPACK-style 2D block-cyclic partition.
func BlockCyclic(rows, cols, pr, pc, mb, nb int) Layout {
	return dist.BlockCyclic2D{R: rows, C: cols, Pr: pr, Pc: pc, Mb: mb, Nb: nb}
}

// Algorithm selects the PGEMM algorithm.
type Algorithm string

// Available algorithms.
const (
	// CA3DMM is the paper's algorithm (default).
	CA3DMM Algorithm = "ca3dmm"
	// CA3DMMSumma is the CA3DMM-S variant with a SUMMA inner kernel
	// (paper Section III-E).
	CA3DMMSumma Algorithm = "ca3dmm-s"
	// COSMA is the COSMA-style baseline (Section III-C).
	COSMA Algorithm = "cosma"
	// CARMA is the recursive bisection baseline (power-of-two ranks).
	CARMA Algorithm = "carma"
	// C25D is the 2.5D algorithm (CTF baseline).
	C25D Algorithm = "c25d"
	// SUMMA is the plain 2D algorithm (ScaLAPACK-style baseline).
	SUMMA Algorithm = "summa"
	// Algo1D is the classical 1D algorithm family (partition m, n, or
	// k only; the best variant is chosen from the shape). These are
	// the optimal algorithms CA3DMM degenerates to on tall-and-skinny
	// problems.
	Algo1D Algorithm = "1d"
	// Algo3D is the original 3D algorithm (Agarwal et al. 1995):
	// broadcast-based input replication, the historical baseline the
	// paper contrasts with COSMA's allgather formulation.
	Algo3D Algorithm = "3d"
)

// Algorithms lists every registered algorithm name.
func Algorithms() []Algorithm {
	return []Algorithm{CA3DMM, CA3DMMSumma, COSMA, CARMA, C25D, SUMMA, Algo1D, Algo3D}
}

// Config tunes a multiplication plan.
type Config struct {
	Algorithm      Algorithm // empty = CA3DMM
	TransA, TransB bool
	// Grid forces the 3D process grid (CA3DMM/COSMA only).
	Grid Grid
	// LowerUtil is the utilization bound l of the grid constraint
	// (0 = the paper's 0.95).
	LowerUtil float64
	// DualBuffer overlaps Cannon shifts with local compute.
	DualBuffer bool
	// NoOverlap disables the overlapped execution schedule and forces
	// fully blocking communication. Overlap is on by default: Cannon
	// shifts run as nonblocking sendrecv behind the GEMM, SUMMA panel
	// broadcasts are prefetched with Ibcast, and the replication
	// allgather hides the padding copy. The accumulation order is fixed
	// either way, so results are bit-identical with and without
	// overlap; NoOverlap exists for A/B benchmarking and debugging.
	NoOverlap bool
	// OverlapDepth is the SUMMA panel prefetch depth under overlap
	// (0 = 1, the classic double buffer). Cannon shifts are inherently
	// depth-1.
	OverlapDepth int
	// MultiShift aggregates Cannon shifts for thin k panels (<2 off).
	MultiShift int
	// ABFT guards every local GEMM step of every algorithm with
	// Huang–Abraham checksums: operands and output tiles carry dual
	// weighted checksums, silent bit flips are detected per
	// accumulation step, corrected in place when localizable, and
	// absorbed by a surgical tile recompute otherwise. Zero-fault runs
	// are bit-identical with and without the guard (verification only
	// reads; corrections fire only above rounding tolerance).
	ABFT bool
	// ABFTRel overrides the guard's relative syndrome tolerance
	// (0 = the mat.DefaultSDCRel default, 1e-12).
	ABFTRel float64
	// SUMMAPanel is the panel width for SUMMA-based kernels (0 auto).
	SUMMAPanel int
	// MaxPk caps the number of k-task groups — CA3DMM's memory-control
	// knob from the paper's Section V (fewer partial C copies, more
	// communication volume).
	MaxPk int
	// MemoryLimitBytes bounds CA3DMM's per-rank memory (eq. 11 model);
	// the planner reduces k-task groups until it fits or errors.
	MemoryLimitBytes int64
	// Trace records per-rank stage timelines of CA3DMM executions.
	Trace *TraceRecorder
	// Timeout bounds any single blocked communication operation of the
	// run (0 = the runtime's 60s default).
	Timeout time.Duration
	// Fault injects a deterministic fault plan into the run. Plans
	// containing FaultDrop or FaultPartition automatically enable the
	// reliable transport (and, for partitions, the failure detector).
	Fault *FaultPlan
	// Net tunes the reliable ack/retransmit transport (nil = defaults).
	Net *ReliableOptions
	// Heartbeat tunes the failure detector (nil = defaults).
	Heartbeat *HeartbeatOptions
}

// abftOptions translates the public knobs into the guard options.
func (cfg Config) abftOptions() abft.Options {
	return abft.Options{Enabled: cfg.ABFT, Rel: cfg.ABFTRel}
}

// StageTimes is the per-rank stage breakdown of one execution, in the
// vocabulary of the reference implementation's report: Redistribute
// (A, B, C user-layout conversion), ReplicateAB (allgather/broadcast of
// inputs plus kernel shifts and panel broadcasts), LocalCompute,
// ReduceC, Total, and MatmulOnly (Total minus Redistribute).
type StageTimes = core.StageTimes

// Plan is a reusable multiplication plan: fixed shape, process count,
// and algorithm — that algorithm's schedule (grid, groups, native
// layouts, replication kind, inner kernel) plus the execution options.
// Safe for concurrent use by all ranks and across repeated executions.
type Plan struct {
	M, N, K int
	Procs   int
	Cfg     Config
	sched   *core.Schedule
	opt     core.Options
}

// NewPlan builds a plan for C = op(A)·op(B) where op(A) is m x k and
// op(B) is k x n, on p ranks.
func NewPlan(m, n, k, p int, cfg Config) (*Plan, error) {
	if cfg.Algorithm == "" {
		cfg.Algorithm = CA3DMM
	}
	opt := core.Options{
		Grid:         cfg.Grid,
		LowerUtil:    cfg.LowerUtil,
		DualBuffer:   cfg.DualBuffer,
		Overlap:      !cfg.NoOverlap,
		OverlapDepth: cfg.OverlapDepth,
		MultiShift:   cfg.MultiShift,
		UseSUMMA:     cfg.Algorithm == CA3DMMSumma || cfg.Algorithm == SUMMA,
		SUMMAPanel:   cfg.SUMMAPanel,
		MaxPk:        cfg.MaxPk,

		MemoryLimitBytes: cfg.MemoryLimitBytes,
		Trace:            cfg.Trace,
		ABFT:             cfg.abftOptions(),
	}
	var (
		sched *core.Schedule
		err   error
	)
	if cfg.Algorithm == SUMMA {
		// Plain 2D SUMMA is CA3DMM-S on the best pr x pc x 1 grid.
		opt.Grid = Grid{Pk: 1}
		if opt.Grid.Pm, opt.Grid.Pn, err = grid.Optimize2D(m, n, k, p); err != nil {
			return nil, err
		}
	}
	switch cfg.Algorithm {
	case CA3DMM, CA3DMMSumma, SUMMA:
		var pl *core.Plan
		if pl, err = core.NewPlan(m, n, k, p, cfg.TransA, cfg.TransB, opt); err == nil {
			sched = pl.Schedule
		}
	case COSMA:
		var pl *cosma.Plan
		pl, err = cosma.NewPlan(m, n, k, p, cfg.TransA, cfg.TransB, cosma.Options{
			Grid: cfg.Grid, LowerUtil: cfg.LowerUtil,
		})
		if err == nil {
			sched = pl.Schedule
		}
	case CARMA:
		var pl *carma.Plan
		if pl, err = carma.NewPlan(m, n, k, p, cfg.TransA, cfg.TransB); err == nil {
			sched = pl.Schedule
		}
	case C25D:
		var pl *c25d.Plan
		if pl, err = c25d.NewPlan(m, n, k, p, cfg.TransA, cfg.TransB); err == nil {
			sched = pl.Schedule
		}
	case Algo1D:
		var pl *algo1d.Plan
		if pl, err = algo1d.NewPlan(m, n, k, p, cfg.TransA, cfg.TransB, algo1d.Auto); err == nil {
			sched = pl.Schedule
		}
	case Algo3D:
		var pl *algo3d.Plan
		if pl, err = algo3d.NewPlan(m, n, k, p, cfg.TransA, cfg.TransB); err == nil {
			sched = pl.Schedule
		}
	default:
		return nil, fmt.Errorf("ca3dmm: unknown algorithm %q", cfg.Algorithm)
	}
	if err != nil {
		return nil, err
	}
	return &Plan{M: m, N: n, K: k, Procs: p, Cfg: cfg, sched: sched, opt: opt}, nil
}

// Execute runs the plan on the calling rank. aLocal/bLocal are the
// caller's blocks of the stored A and B under aL/bL; the result is the
// caller's block of C under cL. Collective over c.
func (p *Plan) Execute(c *Comm, aLocal *Matrix, aL Layout, bLocal *Matrix, bL Layout, cL Layout) (*Matrix, StageTimes) {
	return p.sched.Execute(c, p.opt, aLocal, aL, bLocal, bL, cL)
}

// NativeLayouts returns the plan's library-native distributions of
// op(A), op(B), and C. Feeding Execute these layouts skips the
// redistribution steps ("matmul only" mode).
func (p *Plan) NativeLayouts() (a, b, c Layout) {
	return p.sched.ALayout, p.sched.BLayout, p.sched.CLayout
}

// GridDims returns the process grid (pm, pn, pk); SUMMA reports
// (pr, pc, 1) and CARMA its bisection-equivalent grid.
func (p *Plan) GridDims() (pm, pn, pk int) { return p.sched.G.Pm, p.sched.G.Pn, p.sched.G.Pk }

// ActiveProcs returns the number of non-idle ranks.
func (p *Plan) ActiveProcs() int { return p.sched.ActiveProcs() }

// Multiply is the one-call convenience API: it distributes the stored
// matrices a (m x k, or k x m when cfg.TransA) and b over p simulated
// ranks with 1D column layouts, multiplies, and gathers C. It returns
// the result, the per-rank communication report, and the maximum
// per-rank stage times.
//
// Multiply is a single-use Engine: NewEngine + MultiplyGlobal + Close.
// Iterative workloads should hold the Engine open instead, which
// amortizes the planning, communicator, and scatter work to zero on
// every call after the first.
func Multiply(a, b *Matrix, p int, cfg Config) (*Matrix, *mpi.Report, StageTimes, error) {
	m, k := a.Rows, a.Cols
	if cfg.TransA {
		m, k = k, m
	}
	k2, n := b.Rows, b.Cols
	if cfg.TransB {
		k2, n = n, k2
	}
	if k != k2 {
		return nil, nil, StageTimes{}, fmt.Errorf("ca3dmm: inner dimensions %d and %d differ", k, k2)
	}
	eng, err := NewEngine(m, n, k, p, cfg)
	if err != nil {
		return nil, nil, StageTimes{}, err
	}
	c, worst, merr := eng.MultiplyGlobal(a, b)
	rep, cerr := eng.Close()
	if cerr != nil {
		// The run's own error (injected crash, deadlock diagnostic, …)
		// carries the root cause; prefer it over the engine wrapper for
		// parity with the historical one-shot semantics.
		return nil, nil, StageTimes{}, cerr
	}
	if merr != nil {
		return nil, nil, StageTimes{}, merr
	}
	return c, rep, worst, nil
}

// ScatterBlocks cuts a stored matrix into per-rank blocks under l —
// the driver-side staging step for Engine.Multiply. Iterative callers
// scatter once, then keep the blocks resident across calls.
func ScatterBlocks(a *Matrix, l Layout) []*Matrix { return dist.Scatter(a, l) }

// AssembleBlocks reassembles per-rank blocks under l into the global
// matrix — the inverse of ScatterBlocks.
func AssembleBlocks(blocks []*Matrix, l Layout) *Matrix { return dist.Assemble(blocks, l) }

func maxStages(a, b StageTimes) StageTimes {
	maxd := func(x, y time.Duration) time.Duration {
		if x > y {
			return x
		}
		return y
	}
	return StageTimes{
		Redistribute: maxd(a.Redistribute, b.Redistribute),
		ReplicateAB:  maxd(a.ReplicateAB, b.ReplicateAB),
		LocalCompute: maxd(a.LocalCompute, b.LocalCompute),
		ReduceC:      maxd(a.ReduceC, b.ReduceC),
		Total:        maxd(a.Total, b.Total),
		MatmulOnly:   maxd(a.MatmulOnly, b.MatmulOnly),
	}
}

// GemmRef is the serial reference multiplication used for validation:
// C = op(A)·op(B).
func GemmRef(a, b *Matrix, transA, transB bool) *Matrix {
	ta, tb := mat.NoTrans, mat.NoTrans
	m := a.Rows
	if transA {
		ta, m = mat.Trans, a.Cols
	}
	n := b.Cols
	if transB {
		tb, n = mat.Trans, b.Rows
	}
	c := mat.New(m, n)
	mat.GemmRef(ta, tb, 1, a, b, 0, c)
	return c
}

// MaxAbsDiff returns the largest elementwise difference between two
// equally-shaped matrices.
func MaxAbsDiff(a, b *Matrix) float64 { return mat.MaxAbsDiff(a, b) }

// Freivalds probabilistically verifies C = op(A)·op(B) in O(trials·n²)
// time with false-accept probability at most 2^-trials — the cheap
// validation mode for products whose serial reference would dwarf the
// multiplication itself.
func Freivalds(a, b, c *Matrix, transA, transB bool, trials int, seed uint64) bool {
	ta, tb := mat.NoTrans, mat.NoTrans
	if transA {
		ta = mat.Trans
	}
	if transB {
		tb = mat.Trans
	}
	return mat.Freivalds(ta, tb, a, b, c, trials, seed, 1e-9)
}
