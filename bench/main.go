// Command bench is the repository's benchmark: five workloads, each
// multiplied in a closed loop by one driver goroutine through a
// persistent ca3dmm.Engine, every result checked against a serial
// reference. With -trace 0 it prints the end-to-end metrics of
// BENCHMARK.json; with -trace 1 it prints the per-layer metrics and
// writes a Chrome trace of the spans it recorded around its own calls.
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	ca3dmm "repro"
	"repro/internal/dist"
	"repro/internal/mpi"
)

// options are the command line.
type options struct {
	workload string  // "" = every workload, untraced then traced
	seed     uint64  // operand seed
	seconds  float64 // measured seconds of one run
	blocks   int     // blocks the measured seconds are split into
	trace    int     // 0 = end-to-end metrics, 1 = per-layer metrics + trace file
	repeat   int     // >0: run that many untraced sets and compare them
	out      string  // directory for the JSON record and the trace file

	corrupt bool // tests only
}

// value is one measured metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the line the driver reads: exactly these four keys.
type outcome struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// result is one run of one workload.
type result struct {
	outcome
	Workload     string `json:"workload"`
	Trace        int    `json:"trace"`
	Grid         string `json:"grid"`
	BlockSamples []int  `json:"block_samples"` // timed rounds in each kept block
}

// record is what a run leaves in the out directory.
type record struct {
	GOOS         string   `json:"goos"`
	GOARCH       string   `json:"goarch"`
	GoVersion    string   `json:"go_version"`
	NProc        int      `json:"nproc"`
	GOMAXPROCS   int      `json:"gomaxprocs"`
	Commit       string   `json:"commit"`
	Seed         uint64   `json:"seed"`
	Blocks       int      `json:"blocks"`
	BlockSeconds float64  `json:"block_seconds"`
	Results      []result `json:"results"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload (default: all, untraced then traced)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the generated operands")
	flag.Float64Var(&o.seconds, "seconds", 18, "measured seconds per run")
	flag.IntVar(&o.blocks, "blocks", 6, "blocks the measured seconds are split into")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics and a Chrome trace in -out")
	flag.IntVar(&o.repeat, "repeat", 0, "run N untraced sets of every workload and compare them against the bounds")
	flag.StringVar(&o.out, "out", "bench/out", "directory for the JSON record and trace")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: unexpected argument", flag.Arg(0))
		os.Exit(2)
	}
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options, w io.Writer) error {
	if o.seconds <= 0 || o.blocks < 1 || o.trace < 0 || o.trace > 1 {
		return fmt.Errorf("want -seconds > 0, -blocks >= 1 and -trace 0 or 1")
	}
	if o.repeat > 0 {
		return repeat(o, w)
	}
	type pass struct {
		w     *workload
		trace int
	}
	var passes []pass
	if o.workload != "" {
		wl, err := findWorkload(o.workload)
		if err != nil {
			return err
		}
		passes = []pass{{wl, o.trace}}
	} else {
		for i := range workloads {
			passes = append(passes, pass{&workloads[i], 0}, pass{&workloads[i], 1})
		}
	}
	rec := newRecord(o)
	for _, p := range passes {
		res, err := runOne(p.w, p.trace, o)
		if err != nil {
			return err
		}
		rec.Results = append(rec.Results, *res)
		printResult(w, res)
	}
	name := fmt.Sprintf("%s-trace%d-seed%d.json", o.workload, o.trace, o.seed)
	if o.workload == "" {
		name = fmt.Sprintf("all-seed%d.json", o.seed)
	}
	return writeJSON(filepath.Join(o.out, name), rec)
}

func newRecord(o options) *record {
	return &record{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Commit: gitCommit(),
		Seed: o.seed, Blocks: o.blocks, BlockSeconds: o.seconds / float64(o.blocks),
	}
}

// gitCommit reads the checked-out commit from .git in the working
// directory without starting a process; "unknown" outside a repository
// (go run does not stamp builds, and the driver's checkout has no .git).
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if hash, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(hash))
	}
	packed, _ := os.ReadFile(filepath.Join(".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, ok := strings.CutSuffix(line, " "+ref); ok {
			return hash
		}
	}
	return "unknown"
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func runOne(wl *workload, trace int, o options) (res *result, err error) {
	in := wl.inputs(o.seed)
	if trace == 0 {
		res, err = wl.untraced(in, o)
	} else {
		res, err = wl.traced(in, o)
	}
	if err == nil {
		res.Correct = res.Failed == 0
	}
	return res, err
}

// printResult prints every metric of a run by name with its unit, then
// the one-line JSON object the driver reads.
func printResult(w io.Writer, res *result) {
	defs := endToEnd
	if res.Trace == 1 {
		defs = perLayer
	}
	fmt.Fprintf(w, "# %s trace=%d grid=%s block_samples=%v\n", res.Workload, res.Trace, res.Grid, res.BlockSamples)
	for _, d := range defs {
		note := d.Better + " is better"
		if d.Bound > 0 {
			note += fmt.Sprintf(", bound %.2f", d.Bound)
		}
		fmt.Fprintf(w, "%-16s %-34s %16.6g %-8s (%s)\n", res.Workload, d.Name, res.Metrics[d.Name].Value, d.Unit, note)
	}
	fmt.Fprintf(w, "%-16s %-34s %16.6g %-8s (%d failed of %d attempted)\n", res.Workload, "error_rate",
		float64(res.Failed)/float64(res.Attempted), "ratio", res.Failed, res.Attempted)
	line, _ := json.Marshal(res.outcome)
	fmt.Fprintf(w, "%s\n", line)
}

// newResult starts a result; set adds one metric with the unit its
// table gives it.
func newResult(wl *workload, trace int) (*result, func(name string, v float64)) {
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	units := make(map[string]string, len(defs))
	for _, d := range defs {
		units[d.Name] = d.Unit
	}
	res := &result{Workload: wl.name, Trace: trace, Grid: gridOf(wl)}
	res.Metrics = make(map[string]value, len(defs))
	return res, func(name string, v float64) {
		unit, ok := units[name]
		if !ok {
			panic("bench: metric " + name + " is not in the table")
		}
		res.Metrics[name] = value{v, unit}
	}
}

// tally adds the operations of blocks to the result.
func (res *result) tally(blocks ...*block) {
	for _, b := range blocks {
		res.Attempted += b.attempted
		res.Failed += b.failed
	}
}

// pooled returns the timed rounds of all blocks in ms and the seconds
// they were timed over.
func pooled(blocks []*block) (rounds []float64, seconds float64) {
	for _, b := range blocks {
		for _, d := range b.rounds {
			rounds = append(rounds, ms(d))
		}
		seconds += b.timed.Seconds()
	}
	return rounds, seconds
}

func over(blocks []*block, f func(*block) float64) []float64 {
	out := make([]float64, len(blocks))
	for i, b := range blocks {
		out[i] = f(b)
	}
	return out
}

func samples(blocks []*block) []int {
	out := make([]int, len(blocks))
	for i, b := range blocks {
		out[i] = len(b.rounds)
	}
	return out
}

// untraced measures the end-to-end metrics: o.blocks blocks of
// o.seconds/o.blocks seconds, no spans, default Config.
func (wl *workload) untraced(in inputs, o options) (*result, error) {
	dur := time.Duration(o.seconds / float64(o.blocks) * float64(time.Second))
	kept, all, err := wl.runBlocks(in, o.blocks, blockOpts{dur: dur, corrupt: o.corrupt})
	if err != nil {
		return nil, err
	}
	res, set := newResult(wl, 0)
	rounds, seconds := pooled(kept)
	set("call_p50_ms", median(rounds))
	set("calls_per_s", float64(len(rounds))/seconds)
	var setups []float64
	for _, b := range kept {
		for _, d := range b.setups {
			setups = append(setups, d.Seconds())
		}
	}
	set("setup_s", median(setups))
	set("heap_growth_bytes_per_call", median(over(kept, func(b *block) float64 { return b.heapGrowth })))
	set("alloc_bytes_per_call", median(over(kept, func(b *block) float64 { return b.allocBytes })))
	res.BlockSamples = samples(kept)
	res.tally(all...)
	return res, nil
}

// gridOf names the process grid the planner chose for the workload's
// first algorithm.
func gridOf(wl *workload) string {
	plan, err := ca3dmm.NewPlan(wl.m, wl.n, wl.k, wl.p, ca3dmm.Config{Algorithm: wl.algs[0]})
	if err != nil {
		return "?"
	}
	pm, pn, pk := plan.GridDims()
	return fmt.Sprintf("%dx%dx%d/%d", pm, pn, pk, wl.p)
}

// traced measures the per-layer metrics. Its budget of o.seconds is
// split between a base pass under the span recorder, three variant
// passes with one Config field changed each, and the micro-benchmarks.
func (wl *workload) traced(in inputs, o options) (*result, error) {
	rec := newSpanRecorder()
	res, set := newResult(wl, 1)
	share := func(f float64) time.Duration { return time.Duration(f * o.seconds * float64(time.Second)) }

	// Base pass: two blocks, default Config, every call under a span.
	base, all, err := wl.runBlocks(in, 2, blockOpts{dur: share(0.14), rec: rec, corrupt: o.corrupt})
	if err != nil {
		return nil, err
	}
	res.tally(all...)
	res.BlockSamples = samples(base)
	rounds, _ := pooled(base)
	p50 := median(rounds)
	pct, tailMs := tail(rounds)
	set("engine.call_p50_ms", p50)
	set("engine.call_tail_ms", tailMs)
	set("engine.call_tail_pct", pct)
	set("engine.calls", float64(len(rounds)))
	var dispatch []float64
	for _, d := range rec.selfTimes("call") {
		dispatch = append(dispatch, us(d))
	}
	// On baselines_round a round is seven calls, so seven dispatches.
	set("engine.dispatch_us", median(dispatch)*float64(len(wl.algs)))
	stage := func(name string, f func(ca3dmm.StageTimes) time.Duration) {
		var xs []float64
		for _, b := range base {
			for _, st := range b.stages {
				xs = append(xs, ms(f(st)))
			}
		}
		set(name, median(xs))
	}
	stage("stage.redistribute_ms", func(s ca3dmm.StageTimes) time.Duration { return s.Redistribute })
	stage("stage.replicate_ms", func(s ca3dmm.StageTimes) time.Duration { return s.ReplicateAB })
	stage("stage.compute_ms", func(s ca3dmm.StageTimes) time.Duration { return s.LocalCompute })
	stage("stage.reduce_ms", func(s ca3dmm.StageTimes) time.Duration { return s.ReduceC })
	stage("stage.total_ms", func(s ca3dmm.StageTimes) time.Duration { return s.Total })
	med := func(f func(*block) float64) float64 { return median(over(base, f)) }
	set("engine.new_engine_ms", med(func(b *block) float64 { return ms(b.setup.newEngine) }))
	set("engine.scatter_ms", med(func(b *block) float64 { return ms(b.setup.scatter) }))
	set("engine.first_call_ms", med(func(b *block) float64 { return ms(b.setup.firstCall) }))
	set("engine.close_us", med(func(b *block) float64 { return us(b.close) }))
	set("host.calib_ms", med(func(b *block) float64 { return ms(b.calib) }))
	discarded, truncated := len(all)-1-len(base), 0
	for _, b := range all {
		if b.truncated {
			truncated++
		}
	}

	// The seven baseline algorithms, one call each per round. On
	// baselines_round that is the base pass; elsewhere a short block of it.
	algBlocks := base
	algWl, _ := findWorkload("baselines_round")
	if algWl != wl {
		b, err := algWl.runBlock(algWl.inputs(o.seed), blockOpts{dur: share(0.04), rec: rec})
		if err != nil {
			return nil, err
		}
		algBlocks = []*block{b}
		res.tally(b)
	}
	for i, alg := range algWl.algs {
		var xs []float64
		for _, b := range algBlocks {
			for _, d := range b.algCalls[i] {
				xs = append(xs, ms(d))
			}
		}
		set("algo."+string(alg)+".call_p50_ms", median(xs))
	}

	// Variant passes: one block each, one Config field changed, no spans.
	variant := func(cfg ca3dmm.Config, maxRounds int) (float64, *block, error) {
		b, err := wl.runBlock(in, blockOpts{cfg: cfg, dur: share(0.09), maxRounds: maxRounds})
		if err != nil {
			return 0, nil, err
		}
		res.tally(b)
		r, _ := pooled([]*block{b})
		return median(r), b, nil
	}
	// The program's recorder keeps every event, and its report is far
	// from linear in them, so the traced variant also stops at 200 rounds.
	tr := ca3dmm.NewTraceRecorder()
	v, b, err := variant(ca3dmm.Config{Trace: tr}, 200)
	if err != nil {
		return nil, err
	}
	set("obs.trace_overhead_ratio", ratio(v, p50))
	set("obs.events_per_call", float64(len(tr.Spans())+len(tr.Events()))/float64(b.attempted))
	t0 := time.Now()
	tr.BuildReport()
	set("obs.build_report_ms", ms(time.Since(t0)))
	if v, _, err = variant(ca3dmm.Config{ABFT: true}, 0); err != nil {
		return nil, err
	}
	set("abft.overhead_ratio", ratio(v, p50))
	if v, _, err = variant(ca3dmm.Config{NoOverlap: true}, 0); err != nil {
		return nil, err
	}
	set("pipeline.overlap_speedup", ratio(v, p50))

	if err := wl.counts(in, set); err != nil {
		return nil, err
	}

	// The one-shot facade on the same shape: what a caller pays who does
	// not hold an Engine open.
	id := rec.begin("oneshot", -1, -1)
	var shots []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		for _, alg := range wl.algs {
			c, _, _, err := ca3dmm.Multiply(in.a, in.b, wl.p, ca3dmm.Config{Algorithm: alg})
			res.Attempted++
			if err != nil || !in.ck.ok(alg, c) {
				res.Failed++
			}
		}
		shots = append(shots, ms(time.Since(t0)))
	}
	rec.finish(id)
	set("engine.oneshot_ms", median(shots))
	set("engine.cold_over_warm", ratio(median(shots), p50))
	set("engine.plan_us", us(timeReps(share(0.01), func() {
		for _, alg := range wl.algs {
			ca3dmm.NewPlan(wl.m, wl.n, wl.k, wl.p, ca3dmm.Config{Algorithm: alg})
		}
	}).t))

	if err := micros(share(0.27), runtime.NumCPU(), rec, set); err != nil {
		return nil, err
	}
	gflops := wl.flopsPerRound() / (p50 * 1e6)
	set("engine.gflops", gflops)
	peak := float64(min(wl.p, runtime.GOMAXPROCS(0))) * res.Metrics["mat.gemm_serial_gflops_512"].Value
	set("engine.runtime_efficiency", ratio(gflops, peak))
	set("host.blocks_discarded", float64(discarded))
	set("host.blocks_truncated", float64(truncated))
	set("host.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
	set("host.nproc", float64(runtime.NumCPU()))

	return res, rec.writeFile(filepath.Join(o.out, "trace-"+wl.name+".json"))
}

// counts measures what repeats exactly: flops, messages and bytes of
// one warm call, and the route and arena hit ratios of warm calls. The
// mpi.Report only comes back from Close, so an engine closed after one
// call is subtracted from an engine closed after three.
func (wl *workload) counts(in inputs, set func(string, float64)) error {
	var flops, msgs, bytes, maxBytes, maxMsgs, transfer float64
	var rh, rm, ah, am int64
	for _, alg := range wl.algs {
		var unused setupTimes
		one, err := wl.open(alg, ca3dmm.Config{}, in, &unused, nil, -1)
		if err != nil {
			return err
		}
		rep1, err := one.eng.Close()
		if err != nil {
			return err
		}
		three, err := wl.open(alg, ca3dmm.Config{}, in, &unused, nil, -1)
		if err != nil {
			return err
		}
		s0, f0 := three.eng.Stats(), ca3dmm.GemmFlopCount()
		for i := 0; i < 2; i++ {
			if _, err := three.multiply(); err != nil {
				three.eng.Close()
				return err
			}
		}
		s1, f1 := three.eng.Stats(), ca3dmm.GemmFlopCount()
		rep3, err := three.eng.Close()
		if err != nil {
			return err
		}
		flops += float64(f1-f0) / 2
		rh += s1.RouteHits - s0.RouteHits
		rm += s1.RouteMisses - s0.RouteMisses
		ah += s1.ArenaHits - s0.ArenaHits
		am += s1.ArenaMisses - s0.ArenaMisses
		msgs += float64(totalMsgs(rep3.Ranks)-totalMsgs(rep1.Ranks)) / 2
		bytes += float64(rep3.TotalBytesSent()-rep1.TotalBytesSent()) / 2
		maxBytes += float64(rep3.MaxBytesSent()-rep1.MaxBytesSent()) / 2
		maxMsgs += float64(rep3.MaxMsgsSent()-rep1.MaxMsgsSent()) / 2

		// Layout conversion volume, computed from the layouts rather than
		// measured: A and B into the native layouts, C back out.
		plan := three.eng.Plan()
		aN, bN, cN := plan.NativeLayouts()
		for _, pair := range [][2]ca3dmm.Layout{{three.aL, aN}, {three.bL, bN}, {cN, three.cL}} {
			elems, _ := dist.TransferVolumeOp(pair[0], pair[1], false)
			transfer += 8 * float64(elems)
		}
	}
	set("mat.flops_per_call", flops)
	set("mat.flop_useful_ratio", ratio(wl.flopsPerRound(), flops))
	set("mpi.msgs_per_call", msgs)
	set("mpi.bytes_per_call", bytes)
	set("mpi.max_rank_bytes_per_call", maxBytes)
	set("mpi.max_rank_msgs_per_call", maxMsgs)
	set("dist.route_hit_ratio", ratio(float64(rh), float64(rh+rm)))
	set("engine.arena_hit_ratio", ratio(float64(ah), float64(ah+am)))
	set("dist.transfer_bytes_per_call", transfer)
	return nil
}

// repeat runs o.repeat untraced sets of every workload back to back and
// prints, per end-to-end metric, the largest relative difference
// between two sets next to its bound. Any breach is an error.
func repeat(o options, w io.Writer) error {
	type key struct{ workload, metric string }
	seen := map[key][]float64{}
	for set := 0; set < o.repeat; set++ {
		for i := range workloads {
			res, err := runOne(&workloads[i], 0, o)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s: %d of %d operations failed", res.Workload, res.Failed, res.Attempted)
			}
			fmt.Fprintf(w, "# set %d\n", set+1)
			printResult(w, res)
			for name, v := range res.Metrics {
				k := key{res.Workload, name}
				seen[k] = append(seen[k], v.Value)
			}
		}
	}
	breaches := 0
	for i := range workloads {
		for _, d := range endToEnd {
			xs := seen[key{workloads[i].name, d.Name}]
			sort.Float64s(xs)
			diff := (xs[len(xs)-1] - xs[0]) / xs[0]
			verdict := "ok"
			if diff > d.Bound {
				verdict = "BREACH"
				breaches++
			}
			fmt.Fprintf(w, "%-16s %-24s diff %.4f bound %.2f %s\n", workloads[i].name, d.Name, diff, d.Bound, verdict)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d metrics differ between sets by more than their bound", breaches)
	}
	return nil
}

func totalMsgs(ranks []mpi.Stats) (n int64) {
	for i := range ranks {
		n += ranks[i].MsgsSent
	}
	return n
}
