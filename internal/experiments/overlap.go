package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/mat"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// OverlapResult is one problem class measured with the blocking and
// the overlapped (double-buffered, nonblocking-collective) schedules.
// GFLOP/s is computed from the worst rank's matmul-only time (best of
// the repetitions), the quantity the paper plots for library-native
// layouts. HiddenCommFrac comes from the observability report of the
// overlapped run: hidden / (hidden + exposed) communication time over
// all ranks.
type OverlapResult struct {
	Class          string  `json:"class"`
	Shape          string  `json:"shape"`
	Procs          int     `json:"procs"`
	BlockingSecs   float64 `json:"blocking_seconds"`
	BlockingGFLOPS float64 `json:"blocking_gflops"`
	OverlapSecs    float64 `json:"overlap_seconds"`
	OverlapGFLOPS  float64 `json:"overlap_gflops"`
	Speedup        float64 `json:"speedup"`
	HiddenCommFrac float64 `json:"hidden_comm_frac"`
	BitIdentical   bool    `json:"bit_identical"`

	// Per-mode time split (summed over ranks, best repetition), so a
	// flat speedup is explainable from the JSON alone: a class with
	// BlockingComm << BlockingGemm has nothing to hide, while one whose
	// OverlapComm stayed close to BlockingComm failed to hide it.
	// Gemm is outermost stage time minus the exposed communication
	// inside it; OverlapHidden is the overlap-window union during which
	// nonblocking operations ran behind compute.
	BlockingCommSecs  float64 `json:"blocking_comm_seconds"`
	BlockingGemmSecs  float64 `json:"blocking_gemm_seconds"`
	OverlapCommSecs   float64 `json:"overlap_comm_seconds"`
	OverlapHiddenSecs float64 `json:"overlap_hidden_seconds"`
	OverlapGemmSecs   float64 `json:"overlap_gemm_seconds"`
}

// timeSplit is the per-run comm/compute decomposition pulled from the
// observability report: exposed comm, hidden (overlapped) comm, and
// the remaining stage time, all summed over ranks.
type timeSplit struct {
	comm, hidden, gemm, frac float64
}

func splitReport(rec *obs.Recorder) timeSplit {
	rep := rec.BuildReport()
	var s timeSplit
	var busy float64
	for _, rs := range rep.RankStats {
		s.comm += float64(rs.CommUS) / 1e6
		s.hidden += float64(rs.HiddenUS) / 1e6
		busy += float64(rs.BusyUS) / 1e6
	}
	// Compute time = outermost stage time minus the communication
	// attributed to a stage; comm outside any stage (barriers between
	// executions, gather/scatter) must not be subtracted, or a
	// comm-bound class would report zero compute.
	var stageComm float64
	for _, br := range rep.Breakdown {
		if br.Stage != "(outside)" {
			stageComm += float64(br.TotalUS) / 1e6
		}
	}
	if g := busy - stageComm; g > 0 {
		s.gemm = g
	}
	s.frac = rep.HiddenCommFrac
	return s
}

type overlapRecord struct {
	GOOS       string          `json:"goos"`
	GOARCH     string          `json:"goarch"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	Procs      int             `json:"procs"`
	Reps       int             `json:"reps"`
	Results    []OverlapResult `json:"results"`
}

// runOverlapClass executes one class with overlap off and on, reps
// times each, and returns the measured pair. The two assembled
// results are compared element for element: the overlap machinery
// fixes the accumulation order, so they must match bitwise.
func runOverlapClass(cl Class, p, reps int) (OverlapResult, error) {
	res := OverlapResult{
		Class: cl.Name,
		Shape: fmt.Sprintf("%dx%dx%d", cl.M, cl.N, cl.K),
		Procs: p,
	}
	a := mat.Random(cl.M, cl.K, 1)
	b := mat.Random(cl.K, cl.N, 2)
	aL := dist.Block1DCol{R: cl.M, C: cl.K, P: p}
	bL := dist.Block1DCol{R: cl.K, C: cl.N, P: p}
	cL := dist.Block1DCol{R: cl.M, C: cl.N, P: p}
	aLocs := dist.Scatter(a, aL)
	bLocs := dist.Scatter(b, bL)
	flops := 2 * float64(cl.M) * float64(cl.N) * float64(cl.K)

	// one timed execution: worst rank's matmul-only time, and the obs
	// report's comm/gemm/hidden split. Both modes carry a recorder, so
	// the recording overhead cancels out of the comparison.
	execute := func(pl *core.Plan, rec *obs.Recorder) (*mat.Dense, time.Duration, error) {
		outs := make([]*mat.Dense, p)
		var worst time.Duration
		var mu sync.Mutex
		_, err := mpi.RunOpt(p, mpi.Options{Obs: rec}, func(c *mpi.Comm) {
			out, tm := pl.Execute(c, aLocs[c.Rank()], aL, bLocs[c.Rank()], bL, cL)
			mu.Lock()
			outs[c.Rank()] = out
			if mo := tm.MatmulOnly; mo > worst {
				worst = mo
			}
			mu.Unlock()
		})
		if err != nil {
			return nil, 0, err
		}
		return dist.Assemble(outs, cL), worst, nil
	}

	measure := func(overlap bool) (*mat.Dense, float64, timeSplit, error) {
		var (
			got       *mat.Dense
			best      = time.Duration(1<<63 - 1)
			bestSplit timeSplit
		)
		for r := 0; r < reps; r++ {
			// The plan is rebuilt per repetition so its stage spans land
			// on that repetition's recorder (the comm/GEMM split needs
			// stage attribution, not just the runtime's comm spans).
			rec := obs.NewRecorder()
			pl, err := core.NewPlan(cl.M, cl.N, cl.K, p, false, false,
				core.Options{DualBuffer: true, Overlap: overlap, Trace: rec})
			if err != nil {
				return nil, 0, timeSplit{}, err
			}
			out, worst, err := execute(pl, rec)
			if err != nil {
				return nil, 0, timeSplit{}, err
			}
			if got == nil {
				got = out
			} else if !identical(got, out) {
				return nil, 0, timeSplit{}, fmt.Errorf("overlap=%v: repetition %d differs bitwise from repetition 0", overlap, r)
			}
			if worst < best {
				best, bestSplit = worst, splitReport(rec)
			}
		}
		return got, best.Seconds(), bestSplit, nil
	}

	blockC, blockSecs, blockSplit, err := measure(false)
	if err != nil {
		return res, err
	}
	overC, overSecs, overSplit, err := measure(true)
	if err != nil {
		return res, err
	}
	res.BlockingSecs = blockSecs
	res.BlockingGFLOPS = flops / blockSecs / 1e9
	res.OverlapSecs = overSecs
	res.OverlapGFLOPS = flops / overSecs / 1e9
	res.Speedup = blockSecs / overSecs
	res.HiddenCommFrac = overSplit.frac
	res.BlockingCommSecs = blockSplit.comm
	res.BlockingGemmSecs = blockSplit.gemm
	res.OverlapCommSecs = overSplit.comm
	res.OverlapHiddenSecs = overSplit.hidden
	res.OverlapGemmSecs = overSplit.gemm
	res.BitIdentical = identical(blockC, overC)
	if !res.BitIdentical {
		return res, fmt.Errorf("%s: blocking and overlapped results differ bitwise", cl.Name)
	}
	ref := mat.New(cl.M, cl.N)
	mat.GemmRef(mat.NoTrans, mat.NoTrans, 1, a, b, 0, ref)
	if d := mat.MaxAbsDiff(overC, ref); d > 1e-8 {
		return res, fmt.Errorf("%s: wrong result, diff %v", cl.Name, d)
	}
	return res, nil
}

func identical(x, y *mat.Dense) bool {
	if x.Rows != y.Rows || x.Cols != y.Cols {
		return false
	}
	for i := range x.Data {
		if x.Data[i] != y.Data[i] {
			return false
		}
	}
	return true
}

// RealOverlap measures the blocking vs overlapped CA3DMM schedules on
// real goroutine ranks across the scaled problem classes, printing a
// comparison table and, when out is non-empty, writing the
// machine-readable record to that path so successive PRs can track
// the communication-hiding trajectory.
func RealOverlap(w io.Writer, procs, reps int, out string) error {
	if reps <= 0 {
		reps = 3
	}
	rec := overlapRecord{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Procs:      procs,
		Reps:       reps,
	}
	fmt.Fprintf(w, "# Blocking vs overlapped CA3DMM, P=%d goroutine ranks, best of %d reps\n", procs, reps)
	fmt.Fprintf(w, "%-8s %14s %12s %12s %9s %11s %10s %10s %10s\n",
		"class", "shape", "blk GFLOP/s", "ovl GFLOP/s", "speedup", "hiddenComm", "blk comm", "ovl comm", "gemm")
	for _, cl := range RealClasses() {
		r, err := runOverlapClass(cl, procs, reps)
		if err != nil {
			return fmt.Errorf("%s: %w", cl.Name, err)
		}
		rec.Results = append(rec.Results, r)
		fmt.Fprintf(w, "%-8s %14s %12.2f %12.2f %8.2fx %10.1f%% %9.1fms %9.1fms %9.1fms\n",
			r.Class, r.Shape, r.BlockingGFLOPS, r.OverlapGFLOPS, r.Speedup, 100*r.HiddenCommFrac,
			1e3*r.BlockingCommSecs, 1e3*r.OverlapCommSecs, 1e3*r.OverlapGemmSecs)
	}
	if out == "" {
		return nil
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rec); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", out)
	return nil
}
