package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	ca3dmm "repro"
)

// A workload is one fixed problem the benchmark multiplies over and
// over. A round is one Engine.Multiply on each of the workload's
// engines: one engine everywhere except baselines_round, whose round
// is one call of each of the seven other algorithms.
type workload struct {
	name, why  string
	m, n, k, p int
	algs       []ca3dmm.Algorithm
	// userCols puts A, B and C in 1D-column user layouts, so every call
	// converts layouts; otherwise operands live in the plan's native
	// layouts and no conversion happens.
	userCols bool
}

var only = []ca3dmm.Algorithm{ca3dmm.CA3DMM}

var workloads = []workload{
	{name: "kernel_bound", m: 1024, n: 1024, k: 1024, p: 4, algs: only,
		why: "1024^3 on 4 ranks, native layouts: local GEMM is most of the call, so a kernel or packing change shows here and a message-path change does not"},
	{name: "comm_bound", m: 512, n: 512, k: 512, p: 16, algs: only,
		why: "512^3 on 16 ranks (2x4x2 grid), native layouts: allgather, Cannon shifts and reduce-scatter of 10-100 kB messages dominate, GEMM is under a tenth"},
	{name: "redist_bound", m: 16384, n: 64, k: 64, p: 16, algs: only, userCols: true,
		why: "large-M 16384x64x64 on 16 ranks with A, B, C in 1D-column user layouts (the paper's custom-layout case): layout conversion is the largest stage"},
	{name: "small_calls", m: 32, n: 32, k: 32, p: 5, algs: only,
		why: "32^3 on 5 ranks, the purification call: microseconds of arithmetic, so message latency and Engine dispatch are the whole call"},
	{name: "baselines_round", m: 384, n: 384, k: 384, p: 8, userCols: true,
		algs: []ca3dmm.Algorithm{ca3dmm.CA3DMMSumma, ca3dmm.COSMA, ca3dmm.CARMA, ca3dmm.C25D, ca3dmm.SUMMA, ca3dmm.Algo1D, ca3dmm.Algo3D},
		why:  "one round = one warm call of each of the seven other algorithms, 384^3 on 8 ranks, 1D-column layouts: the Engine path without cached splits or arena"},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// flopsPerRound is the useful arithmetic of one round, 2mnk per call.
func (w *workload) flopsPerRound() float64 {
	return 2 * float64(w.m) * float64(w.n) * float64(w.k) * float64(len(w.algs))
}

// inputs are the operands of a workload, generated from the seed, and
// the checker every result goes through.
type inputs struct {
	a, b *ca3dmm.Matrix
	ck   *checker
}

func (w *workload) inputs(seed uint64) inputs {
	a := ca3dmm.Random(w.m, w.k, 3*seed+1)
	b := ca3dmm.Random(w.k, w.n, 3*seed+2)
	return inputs{a: a, b: b, ck: newChecker(a, b, 3*seed+3)}
}

// liveEngine is one open engine of a block with its resident blocks.
type liveEngine struct {
	eng                 *ca3dmm.Engine
	aL, bL, cL          ca3dmm.Layout
	aLocs, bLocs, cDsts []*ca3dmm.Matrix
	cold                *ca3dmm.Matrix // C of the first call, assembled
}

func (e *liveEngine) multiply() (ca3dmm.StageTimes, error) {
	_, st, err := e.eng.Multiply(e.aLocs, e.aL, e.bLocs, e.bL, e.cDsts, e.cL)
	return st, err
}

// setupTimes are the three parts of time to first result, summed over
// the workload's engines.
type setupTimes struct{ newEngine, scatter, firstCall time.Duration }

func (s setupTimes) total() time.Duration { return s.newEngine + s.scatter + s.firstCall }

// open builds a fresh engine for alg (cfg otherwise as given), scatters
// the operands and makes the first (cold) call, adding each part's time
// to st.
func (w *workload) open(alg ca3dmm.Algorithm, cfg ca3dmm.Config, in inputs, st *setupTimes, rec *spanRecorder, parent int) (*liveEngine, error) {
	cfg.Algorithm = alg
	id := rec.begin("new_engine", parent, -1)
	t0 := time.Now()
	eng, err := ca3dmm.NewEngine(w.m, w.n, w.k, w.p, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: NewEngine(%s): %w", w.name, alg, err)
	}
	t1 := time.Now()
	rec.finish(id)

	id = rec.begin("scatter", parent, -1)
	e := &liveEngine{eng: eng}
	e.aL, e.bL, e.cL = eng.NativeLayouts()
	if w.userCols {
		e.aL = ca3dmm.ColBlocks(w.m, w.k, w.p)
		e.bL = ca3dmm.ColBlocks(w.k, w.n, w.p)
		e.cL = ca3dmm.ColBlocks(w.m, w.n, w.p)
	}
	e.aLocs = ca3dmm.ScatterBlocks(in.a, e.aL)
	e.bLocs = ca3dmm.ScatterBlocks(in.b, e.bL)
	e.cDsts = make([]*ca3dmm.Matrix, w.p)
	for r := range e.cDsts {
		rows, cols := e.cL.LocalShape(r)
		e.cDsts[r] = ca3dmm.NewMatrix(rows, cols)
	}
	t2 := time.Now()
	rec.finish(id)

	id = rec.begin("first_call", parent, -1)
	_, err = e.multiply()
	t3 := time.Now()
	rec.finish(id)
	if err != nil {
		eng.Close()
		return nil, fmt.Errorf("%s: first call (%s): %w", w.name, alg, err)
	}
	e.cold = ca3dmm.AssembleBlocks(e.cDsts, e.cL)
	st.newEngine += t1.Sub(t0)
	st.scatter += t2.Sub(t1)
	st.firstCall += t3.Sub(t2)
	return e, nil
}

// block is what one block measured.
type block struct {
	calib  time.Duration   // the slower of the calibration loops before and after
	setups []time.Duration // time to first result of each set-up
	setup  setupTimes      // the parts of the last one
	close  time.Duration

	rounds []time.Duration // wall time of each timed round
	timed  time.Duration   // wall time of the whole timed loop

	// Traced runs only: per timed round, the stage times its calls
	// returned (summed over the round's calls) and each call's wall time
	// by engine.
	stages   []ca3dmm.StageTimes
	algCalls [][]time.Duration

	heapGrowth float64 // bytes still live after a GC at block end, per timed round
	allocBytes float64 // bytes allocated, per timed round

	attempted, failed int // Engine.Multiply operations
	truncated         bool
}

const (
	warmupRounds = 3
	minSetups    = 3
	maxSetups    = 16
	setupBudget  = 100 * time.Millisecond
	// spanRounds is how many rounds of a block get spans; the tens of
	// thousands of rounds small_calls makes would be a 40 MB trace.
	spanRounds = 2000
	// heapLimit ends a block early: the warm path retains memory per
	// call today, and the benchmark must outlive that, not be killed by it.
	heapLimit = 4 << 30
)

var heapSamples = []metrics.Sample{
	{Name: "/memory/classes/heap/objects:bytes"},
	{Name: "/memory/classes/heap/unused:bytes"},
}

// heapInUse is runtime.MemStats.HeapInuse without stopping the world.
func heapInUse() uint64 {
	metrics.Read(heapSamples)
	return heapSamples[0].Value.Uint64() + heapSamples[1].Value.Uint64()
}

// blockOpts are the parts of a block that vary between passes.
type blockOpts struct {
	cfg       ca3dmm.Config
	dur       time.Duration
	maxRounds int           // end the timed loop after this many rounds too; 0 = by time only
	rec       *spanRecorder // nil = untraced
	corrupt   bool          // tests only: damage C before the check
}

// runBlock is one block: calibration, set-ups (fresh engines + scatter
// + cold call), warm-up, GC, timed rounds, result check, Close, GC,
// calibration.
func (w *workload) runBlock(in inputs, o blockOpts) (*block, error) {
	b := &block{calib: calibrate()}
	rec := o.rec
	blockSpan := rec.begin("block", -1, -1)

	// Time to first result is one sample per set-up, so each block sets
	// up several times — three, and while that took under setupBudget up
	// to sixteen — and keeps the last set of engines open.
	var engines []*liveEngine
	t0 := time.Now()
	for i := 0; i < minSetups || (i < maxSetups && time.Since(t0) < setupBudget); i++ {
		for _, e := range engines {
			e.eng.Close()
		}
		setupSpan := rec.begin("setup", blockSpan, -1)
		b.setup = setupTimes{}
		engines = engines[:0]
		for _, alg := range w.algs {
			e, err := w.open(alg, o.cfg, in, &b.setup, rec, setupSpan)
			if err != nil {
				for _, e := range engines {
					e.eng.Close()
				}
				return nil, err
			}
			engines = append(engines, e)
		}
		rec.finish(setupSpan)
		b.setups = append(b.setups, b.setup.total())
		b.attempted += len(engines)
	}

	// round makes one call per engine; ok is false once a call returned
	// an error, after which the engine is dead and the block ends.
	round := func(id int, timed bool) (ok bool) {
		var sum ca3dmm.StageTimes
		spans, name := rec, "call"
		if id >= spanRounds {
			spans = nil
		}
		if !timed {
			name = "warmup_call"
		}
		for i, e := range engines {
			call := spans.begin(name, blockSpan, id)
			t0 := time.Now()
			st, err := e.multiply()
			d := time.Since(t0)
			spans.finish(call)
			b.attempted++
			if err != nil {
				b.failed++
				return false
			}
			if spans != nil {
				traceStages(spans, call, st)
			}
			if rec != nil && timed {
				b.algCalls[i] = append(b.algCalls[i], d)
				sum = addStages(sum, st)
			}
		}
		if rec != nil && timed {
			b.stages = append(b.stages, sum)
		}
		return true
	}

	alive := true
	for i := 0; i < warmupRounds && alive; i++ {
		alive = round(-1, false)
	}
	runtime.GC()
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)

	b.rounds = make([]time.Duration, 0, 1<<16)
	if rec != nil {
		b.algCalls = make([][]time.Duration, len(engines))
	}
	start := time.Now()
	lastHeapCheck := start
	for alive {
		t0 := time.Now()
		if n := len(b.rounds); n > 0 && (t0.Sub(start) >= o.dur || n == o.maxRounds) {
			break
		}
		if t0.Sub(lastHeapCheck) > 20*time.Millisecond {
			lastHeapCheck = t0
			if heapInUse() > heapLimit {
				b.truncated = true
				break
			}
		}
		alive = round(len(b.rounds), true)
		if alive {
			b.rounds = append(b.rounds, time.Since(t0))
		}
	}
	b.timed = time.Since(start)
	runtime.ReadMemStats(&m1)
	runtime.GC()
	runtime.ReadMemStats(&m2)
	if n := float64(len(b.rounds)); n > 0 {
		b.allocBytes = float64(m1.TotalAlloc-m0.TotalAlloc) / n
		b.heapGrowth = (float64(m2.HeapAlloc) - float64(m0.HeapAlloc)) / n
	}

	// Every call of the block fails if its final C is not the cold
	// call's C bit for bit, or the checker rejects it.
	if o.corrupt {
		engines[0].cDsts[0].Data[0] += 1
	}
	good := alive
	for i, e := range engines {
		final := ca3dmm.AssembleBlocks(e.cDsts, e.cL)
		if !sameBits(final, e.cold) || !in.ck.ok(w.algs[i], final) {
			good = false
		}
	}
	closeSpan := rec.begin("close", blockSpan, -1)
	t0 = time.Now()
	for _, e := range engines {
		if _, err := e.eng.Close(); err != nil {
			good = false
		}
	}
	b.close = time.Since(t0)
	rec.finish(closeSpan)
	rec.finish(blockSpan)
	if !good && b.failed == 0 {
		b.failed = b.attempted
	}
	runtime.GC()

	if after := calibrate(); after > b.calib {
		b.calib = after
	}
	return b, nil
}

// traceStages lays the stage times a call returned under its span:
// call ⊃ execute ⊃ {redistribute, replicate, compute, reduce}. The
// stages are the maximum over ranks and overlap in reality; they are
// laid end to end and clipped to execute. What call does not spend in
// execute is Engine dispatch.
func traceStages(rec *spanRecorder, call int, st ca3dmm.StageTimes) {
	ex := rec.child("execute", call, 0, st.Total, true)
	var off time.Duration
	for _, s := range []struct {
		name string
		d    time.Duration
	}{
		{"redistribute", st.Redistribute}, {"replicate", st.ReplicateAB},
		{"compute", st.LocalCompute}, {"reduce", st.ReduceC},
	} {
		rec.child(s.name, ex, off, s.d, true)
		off += s.d
	}
}

func addStages(a, b ca3dmm.StageTimes) ca3dmm.StageTimes {
	return ca3dmm.StageTimes{
		Redistribute: a.Redistribute + b.Redistribute,
		ReplicateAB:  a.ReplicateAB + b.ReplicateAB,
		LocalCompute: a.LocalCompute + b.LocalCompute,
		ReduceC:      a.ReduceC + b.ReduceC,
		Total:        a.Total + b.Total,
		MatmulOnly:   a.MatmulOnly + b.MatmulOnly,
	}
}

// runBlocks runs n blocks after a short unrecorded one that lets the
// process warm up (heap growth, pack pools, first page faults). Then the
// noise guard: a block whose calibration loop ran more than 25 % slower
// than the run's median calibration is discarded, the slowest first, up
// to a third of the blocks. The decision reads only the calibration
// loop, never a measured metric. Blocks are not run again: a run must
// take the same time whatever the machine does.
func (w *workload) runBlocks(in inputs, n int, o blockOpts) (kept, all []*block, err error) {
	warm := o
	warm.dur, warm.rec = o.dur/10, nil
	for i := 0; i <= n; i++ {
		opts := o
		if i == 0 {
			opts = warm
		}
		b, err := w.runBlock(in, opts)
		if err != nil {
			return nil, nil, err
		}
		all = append(all, b)
	}
	kept = append(kept, all[1:]...)
	sort.SliceStable(kept, func(i, j int) bool { return kept[i].calib < kept[j].calib })
	limit := 1.25 * median(over(kept, func(b *block) float64 { return float64(b.calib) }))
	for drop := n / 3; drop > 0 && float64(kept[len(kept)-1].calib) > limit; drop-- {
		kept = kept[:len(kept)-1]
	}
	return kept, all, nil
}
