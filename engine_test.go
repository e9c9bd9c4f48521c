package ca3dmm

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
)

// Engine suite: the persistent plan/communicator/buffer reuse path.
// The headline contract is the issue's win condition — second-and-later
// multiplies of a shape do zero planning and zero rank-0 scatter — plus
// bit-identity with the one-shot facade and typed-error behavior after
// Close and after rank failures.

// engineEvents counts recorded instant events by name prefix.
func engineEvents(tr *TraceRecorder, prefix string) int {
	n := 0
	for _, e := range tr.Events() {
		if strings.HasPrefix(e.Name, prefix) {
			n++
		}
	}
	return n
}

// TestEngineWarmCallsAmortized pins the amortization contract on every
// algorithm — all eight run on the one schedule executor, so all eight
// get its reuse story: after the first Multiply of a shape, later calls
// build no routes (route-miss count frozen), allocate no new
// steady-state buffers (arena-miss count frozen from call 3), never
// touch the rank-0 scatter path, and return results bit-identical to
// the first call and to the one-shot facade, with every stage of the
// executor on the trace.
func TestEngineWarmCallsAmortized(t *testing.T) {
	const m, n, k = 45, 38, 29
	a := Random(m, k, 1)
	b := Random(k, n, 2)
	for _, alg := range Algorithms() {
		t.Run(string(alg), func(t *testing.T) {
			p := 6
			if alg == CARMA {
				p = 8 // power-of-two restriction
			}
			facade, _, _, err := Multiply(a, b, p, Config{Algorithm: alg})
			if err != nil {
				t.Fatal(err)
			}
			if d := MaxAbsDiff(facade, GemmRef(a, b, false, false)); d > 1e-10 {
				t.Fatalf("wrong result, max diff %g", d)
			}

			tr := NewTraceRecorder()
			eng, err := NewEngine(m, n, k, p, Config{Algorithm: alg, Trace: tr})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()

			aL := ColBlocks(m, k, p)
			bL := ColBlocks(k, n, p)
			cL := ColBlocks(m, n, p)
			aLocs := ScatterBlocks(a, aL)
			bLocs := ScatterBlocks(b, bL)
			// Caller-owned destination blocks: the steady state of an
			// iterative solver, and the only configuration that can be
			// allocation-flat (outputs handed to the caller are
			// necessarily fresh buffers).
			cDsts := make([]*Matrix, p)
			for r := 0; r < p; r++ {
				cr, cc := cL.LocalShape(r)
				cDsts[r] = NewMatrix(cr, cc)
			}
			scatterBase := dist.ScatterCalls()

			const calls = 5
			var missesAfterCold, arenaAfterWarm int64
			for call := 1; call <= calls; call++ {
				outs, _, err := eng.Multiply(aLocs, aL, bLocs, bL, cDsts, cL)
				if err != nil {
					t.Fatalf("call %d: %v", call, err)
				}
				if !bitIdentical(AssembleBlocks(outs, cL), facade) {
					t.Fatalf("call %d differs bitwise from the one-shot facade", call)
				}
				st := eng.Stats()
				if call == 1 {
					missesAfterCold = st.RouteMisses
					if missesAfterCold == 0 {
						t.Fatal("cold call built no routes; the cache is not in the path")
					}
					continue
				}
				if st.RouteMisses != missesAfterCold {
					t.Fatalf("warm call %d built routes: %d misses, want the cold call's %d",
						call, st.RouteMisses, missesAfterCold)
				}
				if st.RouteHits == 0 {
					t.Fatalf("warm call %d hit no cached routes", call)
				}
				// The second call may still grow the arena (the overlap
				// schedule uses different scratch shapes than the cold
				// one); from then on the buffer set must be closed.
				if call == 2 {
					arenaAfterWarm = st.ArenaMisses
				} else if st.ArenaMisses != arenaAfterWarm {
					t.Fatalf("call %d allocated fresh arena buffers: %d misses, want steady-state %d",
						call, st.ArenaMisses, arenaAfterWarm)
				}
			}

			if got := dist.ScatterCalls(); got != scatterBase {
				t.Fatalf("engine multiplies ran %d rank-0 scatters, want 0", got-scatterBase)
			}
			// Observability: the warm calls must record route hits and no
			// plan-cache traffic (the engine plans exactly once, in
			// NewEngine), and every executor stage must be on the trace.
			if engineEvents(tr, "redist:route-hit") == 0 {
				t.Fatal("no redist:route-hit events recorded")
			}
			if engineEvents(tr, "plan:") != 0 {
				t.Fatal("engine multiplies recorded plan events; planning is not amortized")
			}
			stages := tr.StageTotals()
			sched := eng.Plan().sched
			for _, stage := range []string{"redistribute-in", core.ReplSpan(sched.Repl), sched.Kernel.String(), "reduce-scatter", "redistribute-out"} {
				if _, ok := stages[stage]; !ok {
					t.Errorf("stage %q missing from trace (have %v)", stage, stages)
				}
			}
			if st := eng.Stats(); st.Calls != calls || st.SetupNs <= 0 {
				t.Fatalf("stats: calls=%d setupNs=%d, want %d calls and positive setup", st.Calls, st.SetupNs, calls)
			}
		})
	}
}

// TestResidentWorldMailboxesFlat: a resident executor never splits a
// communicator after NewState and reuses its collective tags call after
// call, so the world's mailbox set — which is never garbage-collected —
// stops growing once the warm path has run. Checked on the rank loop
// the Engine runs, with a barrier so the count is taken at rest.
func TestResidentWorldMailboxesFlat(t *testing.T) {
	const m, n, k = 45, 38, 29
	a := Random(m, k, 1)
	b := Random(k, n, 2)
	for _, alg := range Algorithms() {
		p := 6
		if alg == CARMA {
			p = 8
		}
		plan, err := NewPlan(m, n, k, p, Config{Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		aL, bL, cL := ColBlocks(m, k, p), ColBlocks(k, n, p), ColBlocks(m, n, p)
		aLocs, bLocs := ScatterBlocks(a, aL), ScatterBlocks(b, bL)
		boxes := make([]int, 12)
		if _, err := Run(p, func(c *Comm) {
			st := core.NewState(c, plan.sched, plan.opt)
			for call := 1; call <= 11; call++ {
				st.Execute(aLocs[c.Rank()], aL, bLocs[c.Rank()], bL, nil, cL)
				c.Barrier()
				if c.Rank() == 0 {
					boxes[call] = c.Mailboxes()
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
		// Call 1 is cold; warm call 3 is call 4, warm call 10 call 11.
		if boxes[4] != boxes[11] {
			t.Errorf("%s: %d mailboxes after warm call 3, %d after warm call 10 (per call: %v)", alg, boxes[4], boxes[11], boxes[1:])
		}
	}
}

// TestEngineDestinationBlocks verifies that caller-owned destination
// blocks are written in place — the zero-allocation steady state of an
// iterative solver that reuses its C blocks.
func TestEngineDestinationBlocks(t *testing.T) {
	const m, n, k, p = 33, 27, 21, 6
	a := Random(m, k, 3)
	b := Random(k, n, 4)
	want := GemmRef(a, b, false, false)

	eng, err := NewEngine(m, n, k, p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	aL := ColBlocks(m, k, p)
	bL := ColBlocks(k, n, p)
	cL := Blocks2D(m, n, 3, 2, p)
	aLocs := ScatterBlocks(a, aL)
	bLocs := ScatterBlocks(b, bL)
	cDsts := make([]*Matrix, p)
	for r := 0; r < p; r++ {
		cr, cc := cL.LocalShape(r)
		cDsts[r] = NewMatrix(cr, cc)
	}
	for call := 0; call < 2; call++ {
		outs, _, err := eng.Multiply(aLocs, aL, bLocs, bL, cDsts, cL)
		if err != nil {
			t.Fatal(err)
		}
		for r := range outs {
			if outs[r] != cDsts[r] {
				t.Fatalf("rank %d: result not written into the caller's block", r)
			}
		}
		if d := MaxAbsDiff(AssembleBlocks(outs, cL), want); d > 1e-10 {
			t.Fatalf("in-place result wrong: max diff %g", d)
		}
	}
}

// TestEngineMixedLayouts drives the general redistribution layer:
// operands arrive in three different layout families and the engine
// must still match the facade bitwise.
func TestEngineMixedLayouts(t *testing.T) {
	const m, n, k, p = 40, 36, 24, 6
	a := Random(k, m, 5) // stored transposed
	b := Random(k, n, 6)
	cfg := Config{TransA: true}
	want, _, _, err := Multiply(a, b, p, cfg)
	if err != nil {
		t.Fatal(err)
	}

	eng, err := NewEngine(m, n, k, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	aL := RowBlocks(k, m, p)
	bL := BlockCyclic(k, n, 3, 2, 5, 4)
	cL := Blocks2D(m, n, 2, 3, p)
	aLocs := ScatterBlocks(a, aL)
	bLocs := ScatterBlocks(b, bL)
	for call := 0; call < 2; call++ {
		outs, _, err := eng.Multiply(aLocs, aL, bLocs, bL, nil, cL)
		if err != nil {
			t.Fatal(err)
		}
		if !bitIdentical(AssembleBlocks(outs, cL), want) {
			t.Fatalf("call %d: mixed-layout engine result differs bitwise from facade", call)
		}
	}
}

// TestEngineClosedAndValidation: typed error after Close, idempotent
// Close, and driver-side validation errors that do not poison the
// engine.
func TestEngineClosedAndValidation(t *testing.T) {
	const m, n, k, p = 24, 20, 16, 4
	a := Random(m, k, 7)
	b := Random(k, n, 8)
	eng, err := NewEngine(m, n, k, p, Config{})
	if err != nil {
		t.Fatal(err)
	}

	// Malformed input is an error, not a poison pill.
	wrong := ColBlocks(m+1, k, p)
	if _, _, err := eng.Multiply(ScatterBlocks(Random(m+1, k, 9), wrong), wrong,
		ScatterBlocks(b, ColBlocks(k, n, p)), ColBlocks(k, n, p), nil, ColBlocks(m, n, p)); err == nil {
		t.Fatal("mis-shaped A layout accepted")
	}
	if got, _, err := eng.MultiplyGlobal(a, b); err != nil {
		t.Fatalf("engine unusable after validation error: %v", err)
	} else if d := MaxAbsDiff(got, GemmRef(a, b, false, false)); d > 1e-10 {
		t.Fatalf("wrong result after validation error: %g", d)
	}

	if _, err := eng.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, _, err := eng.MultiplyGlobal(a, b); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("multiply after close: %v, want ErrEngineClosed", err)
	}
	if _, err := eng.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestEngineCacheLRU: repeated shapes hit, capacity evicts the oldest
// engine (closing it), and failed lookups rebuild transparently.
func TestEngineCacheLRU(t *testing.T) {
	tr := NewTraceRecorder()
	cache := NewEngineCache(1)
	defer cache.Close()

	cfg := Config{Trace: tr}
	e1, err := cache.Get(24, 20, 16, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e1again, err := cache.Get(24, 20, 16, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e1again != e1 {
		t.Fatal("same shape did not hit the cache")
	}
	if h, m := cache.Stats(); h != 1 || m != 1 {
		t.Fatalf("cache stats %d/%d, want 1 hit / 1 miss", h, m)
	}
	if engineEvents(tr, "plan:cache-hit") != 1 || engineEvents(tr, "plan:cache-miss") != 1 {
		t.Fatal("cache did not record plan:cache-hit/miss events")
	}

	// Capacity 1: a second shape evicts and closes the first engine.
	if _, err := cache.Get(30, 30, 30, 4, cfg); err != nil {
		t.Fatal(err)
	}
	a := Random(24, 16, 1)
	b := Random(16, 20, 2)
	if _, _, err := e1.MultiplyGlobal(a, b); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("evicted engine still open: %v", err)
	}
}
