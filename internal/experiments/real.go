package experiments

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/c25d"
	"repro/internal/core"
	"repro/internal/cosma"
	"repro/internal/dist"
	"repro/internal/mat"
	"repro/internal/mpi"
)

// RealClasses are scaled-down twins of the paper's problem classes,
// sized to execute on goroutine ranks in seconds while keeping the
// same shape ratios (square, m=n<<k, m>>n=k, m=n>>k).
func RealClasses() []Class {
	return []Class{
		{"square", 320, 320, 320},
		{"large-K", 48, 48, 4800},
		{"large-M", 4800, 48, 48},
		{"flat", 480, 480, 32},
	}
}

// RealResult is one measured run of a real distributed execution.
type RealResult struct {
	Alg        string
	Class      string
	Procs      int
	MatmulOnly time.Duration
	Total      time.Duration
	MaxBytes   int64 // max bytes sent by any rank (comm volume Q)
	PeakMB     float64
	Diff       float64 // vs serial reference
}

// runReal executes one algorithm on real goroutine ranks with 1D
// column user layouts and returns measurements.
func runReal(alg string, cl Class, p int) (RealResult, error) {
	a := mat.Random(cl.M, cl.K, 1)
	b := mat.Random(cl.K, cl.N, 2)
	aL := dist.Block1DCol{R: cl.M, C: cl.K, P: p}
	bL := dist.Block1DCol{R: cl.K, C: cl.N, P: p}
	cL := dist.Block1DCol{R: cl.M, C: cl.N, P: p}
	aLocs := dist.Scatter(a, aL)
	bLocs := dist.Scatter(b, bL)
	outs := make([]*mat.Dense, p)
	res := RealResult{Alg: alg, Class: cl.Name, Procs: p}
	var mu sync.Mutex

	var (
		sched *core.Schedule
		opt   core.Options
		err   error
	)
	switch alg {
	case "ca3dmm":
		var pl *core.Plan
		opt = core.Options{DualBuffer: true}
		if pl, err = core.NewPlan(cl.M, cl.N, cl.K, p, false, false, opt); err == nil {
			sched = pl.Schedule
		}
	case "cosma":
		var pl *cosma.Plan
		if pl, err = cosma.NewPlan(cl.M, cl.N, cl.K, p, false, false, cosma.Options{}); err == nil {
			sched = pl.Schedule
		}
	case "ctf":
		var pl *c25d.Plan
		if pl, err = c25d.NewPlan(cl.M, cl.N, cl.K, p, false, false); err == nil {
			sched = pl.Schedule
		}
	default:
		err = fmt.Errorf("experiments: unknown algorithm %q", alg)
	}
	if err != nil {
		return res, err
	}
	body := func(c *mpi.Comm) {
		out, tm := sched.Execute(c, opt, aLocs[c.Rank()], aL, bLocs[c.Rank()], bL, cL)
		mu.Lock()
		outs[c.Rank()] = out
		res.MatmulOnly = max(res.MatmulOnly, tm.MatmulOnly)
		res.Total = max(res.Total, tm.Total)
		mu.Unlock()
	}

	rep, err := mpi.Run(p, body)
	if err != nil {
		return res, err
	}
	res.MaxBytes = rep.MaxBytesSent()
	res.PeakMB = float64(rep.MaxPeakAlloc()) / 1e6
	got := dist.Assemble(outs, cL)
	ref := mat.New(cl.M, cl.N)
	mat.GemmRef(mat.NoTrans, mat.NoTrans, 1, a, b, 0, ref)
	res.Diff = mat.MaxAbsDiff(got, ref)
	return res, nil
}

// RealScaled executes every algorithm on every scaled class with real
// goroutine ranks, printing timings, per-rank communication volume,
// peak tracked memory, and the correctness check. This is the
// laptop-scale validation twin of Figures 3/5 and Table I.
func RealScaled(w io.Writer, procs int) error {
	fmt.Fprintf(w, "# Scaled-down real execution, P=%d goroutine ranks, 1D column user layout\n", procs)
	fmt.Fprintf(w, "%-8s %-8s %12s %12s %12s %10s %12s\n",
		"class", "lib", "matmul-only", "total", "maxSentMB", "peakMB", "max|diff|")
	for _, cl := range RealClasses() {
		for _, alg := range []string{"cosma", "ca3dmm", "ctf"} {
			r, err := runReal(alg, cl, procs)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", cl.Name, alg, err)
			}
			if r.Diff > 1e-8 {
				return fmt.Errorf("%s/%s: wrong result, diff %v", cl.Name, alg, r.Diff)
			}
			fmt.Fprintf(w, "%-8s %-8s %12v %12v %12.2f %10.1f %12.2e\n",
				cl.Name, alg, r.MatmulOnly.Round(time.Microsecond), r.Total.Round(time.Microsecond),
				float64(r.MaxBytes)/1e6, r.PeakMB, r.Diff)
		}
	}
	return nil
}

// RealMemoryTable is the scaled-down twin of Table I: measured peak
// tracked allocation per process for COSMA vs CA3DMM as P grows.
func RealMemoryTable(w io.Writer) error {
	fmt.Fprintf(w, "# Scaled Table I twin: measured peak matrix memory per rank (MB)\n")
	fmt.Fprintf(w, "%-8s %-8s", "lib", "class")
	ps := []int{4, 8, 16, 32}
	for _, p := range ps {
		fmt.Fprintf(w, " %8s", fmt.Sprintf("P=%d", p))
	}
	fmt.Fprintln(w)
	for _, alg := range []string{"cosma", "ca3dmm"} {
		for _, cl := range RealClasses() {
			fmt.Fprintf(w, "%-8s %-8s", alg, cl.Name)
			for _, p := range ps {
				r, err := runReal(alg, cl, p)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, " %8.2f", r.PeakMB)
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// RealGridSweep is the scaled twin of Table II: CA3DMM runtime with
// the default grid vs forced alternates on a real execution.
func RealGridSweep(w io.Writer) error {
	cl := Class{"square", 384, 384, 384}
	const p = 16
	fmt.Fprintf(w, "# Scaled Table II twin: CA3DMM with forced grids, %dx%dx%d on P=%d\n", cl.M, cl.K, cl.N, p)
	grids := [][3]int{{0, 0, 0}, {4, 4, 1}, {2, 2, 4}, {1, 4, 4}, {4, 2, 2}, {1, 1, 16}}
	a := mat.Random(cl.M, cl.K, 1)
	b := mat.Random(cl.K, cl.N, 2)
	ref := mat.New(cl.M, cl.N)
	mat.GemmRef(mat.NoTrans, mat.NoTrans, 1, a, b, 0, ref)
	aL := dist.Block1DCol{R: cl.M, C: cl.K, P: p}
	bL := dist.Block1DCol{R: cl.K, C: cl.N, P: p}
	cL := dist.Block1DCol{R: cl.M, C: cl.N, P: p}
	aLocs := dist.Scatter(a, aL)
	bLocs := dist.Scatter(b, bL)
	fmt.Fprintf(w, "%13s %12s %12s\n", "pm,pn,pk", "matmul-only", "max|diff|")
	for _, gset := range grids {
		opt := core.Options{DualBuffer: true}
		if gset[0] > 0 {
			opt.Grid.Pm, opt.Grid.Pn, opt.Grid.Pk = gset[0], gset[1], gset[2]
		}
		pl, err := core.NewPlan(cl.M, cl.N, cl.K, p, false, false, opt)
		if err != nil {
			return err
		}
		outs := make([]*mat.Dense, p)
		var worst time.Duration
		var mu sync.Mutex
		_, err = mpi.Run(p, func(c *mpi.Comm) {
			out, tm := pl.Execute(c, aLocs[c.Rank()], aL, bLocs[c.Rank()], bL, cL)
			mu.Lock()
			outs[c.Rank()] = out
			if mo := tm.MatmulOnly; mo > worst {
				worst = mo
			}
			mu.Unlock()
		})
		if err != nil {
			return err
		}
		diff := mat.MaxAbsDiff(dist.Assemble(outs, cL), ref)
		label := fmt.Sprintf("%d,%d,%d", pl.G.Pm, pl.G.Pn, pl.G.Pk)
		if gset[0] == 0 {
			label += "*" // default grid
		}
		fmt.Fprintf(w, "%13s %12v %12.2e\n", label, worst.Round(time.Microsecond), diff)
	}
	fmt.Fprintln(w, "(* = grid chosen by the optimizer)")
	return nil
}
