package mpi

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// chaosTimeout bounds every test in this file: a fault-tolerance bug
// that manifests as a hang should fail fast, not eat the 60s default.
const chaosTimeout = 2 * time.Second

// ringAllreduce is the workload used throughout: enough collectives and
// point-to-point traffic to give every fault class something to hit.
func ringAllreduce(c *Comm, rounds int) float64 {
	v := []float64{float64(c.Rank() + 1)}
	for i := 0; i < rounds; i++ {
		v = c.Allreduce(v)
		next := (c.Rank() + 1) % c.Size()
		prev := (c.Rank() + c.Size() - 1) % c.Size()
		got := c.Sendrecv(next, prev, i, []float64{v[0]})
		v[0] = got[0]
	}
	return v[0]
}

// TestInjectionDeterminism: the same seed must fire the identical
// injection sequence on every rank across independent runs.
func TestInjectionDeterminism(t *testing.T) {
	plan := &FaultPlan{
		Seed: 42,
		Specs: []FaultSpec{
			{Kind: FaultCorrupt, Rank: -1, Prob: 0.05},
			{Kind: FaultDelay, Rank: -1, Prob: 0.05, Delay: time.Microsecond},
			{Kind: FaultDuplicate, Rank: 2, Prob: 0.1},
		},
	}
	run := func() [][]Injection {
		rep, err := RunOpt(4, Options{Timeout: chaosTimeout, Fault: plan}, func(c *Comm) {
			ringAllreduce(c, 8)
		})
		if err != nil {
			t.Fatalf("run failed: %v", err)
		}
		out := make([][]Injection, len(rep.Ranks))
		for i := range rep.Ranks {
			out[i] = rep.Ranks[i].Injected
		}
		return out
	}
	first := run()
	total := 0
	for _, recs := range first {
		total += len(recs)
	}
	if total == 0 {
		t.Fatal("plan injected nothing; probabilities too low for the workload")
	}
	for trial := 0; trial < 3; trial++ {
		again := run()
		for r := range first {
			if len(first[r]) != len(again[r]) {
				t.Fatalf("rank %d: %d injections vs %d on re-run", r, len(first[r]), len(again[r]))
			}
			for i := range first[r] {
				if first[r][i] != again[r][i] {
					t.Fatalf("rank %d injection %d: %v vs %v", r, i, first[r][i], again[r][i])
				}
			}
		}
	}
}

// TestCorruptionFlipsPayload: a corrupt injection must change the
// delivered data (and be recorded).
func TestCorruptionFlipsPayload(t *testing.T) {
	plan := &FaultPlan{
		Seed:  7,
		Specs: []FaultSpec{{Kind: FaultCorrupt, Rank: 0, Op: "p2p", Call: 0, Bit: 52}},
	}
	var got atomic.Value
	rep, err := RunOpt(2, Options{Timeout: chaosTimeout, Fault: plan}, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, []float64{1, 2, 3, 4})
		} else {
			got.Store(c.Recv(0, 0))
		}
	})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if n := len(rep.Ranks[0].Injected); n != 1 {
		t.Fatalf("rank 0 recorded %d injections, want 1", n)
	}
	data := got.Load().([]float64)
	clean := []float64{1, 2, 3, 4}
	same := true
	for i := range data {
		if data[i] != clean[i] {
			same = false
		}
	}
	if same {
		t.Fatalf("payload delivered unmodified: %v", data)
	}
}

// TestDuplicateDelivers: a duplicated message arrives twice; the
// second copy is claimable with a matching receive.
func TestDuplicateDelivers(t *testing.T) {
	plan := &FaultPlan{
		Seed:  9,
		Specs: []FaultSpec{{Kind: FaultDuplicate, Rank: 0, Op: "p2p", Call: 0}},
	}
	_, err := RunOpt(2, Options{Timeout: chaosTimeout, Fault: plan}, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, []float64{5})
			return
		}
		a := c.Recv(0, 0)
		b := c.Recv(0, 0) // the duplicate
		if a[0] != 5 || b[0] != 5 {
			panic(fmt.Sprintf("got %v and %v, want two copies of [5]", a, b))
		}
	})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
}

// TestCrashProducesTypedError: an injected crash with no recovery must
// surface as a RankFailure wrapping ErrRankFailed — never a timeout.
func TestCrashProducesTypedError(t *testing.T) {
	plan := &FaultPlan{
		Seed:  1,
		Specs: []FaultSpec{{Kind: FaultCrash, Rank: 1, Op: "allreduce", Call: 2}},
	}
	_, err := RunOpt(4, Options{Timeout: chaosTimeout, Fault: plan}, func(c *Comm) {
		ringAllreduce(c, 4)
	})
	if err == nil {
		t.Fatal("run succeeded despite injected crash")
	}
	if !errors.Is(err, ErrRankFailed) {
		t.Fatalf("error does not wrap ErrRankFailed: %v", err)
	}
	var rf *RankFailure
	if !errors.As(err, &rf) {
		t.Fatalf("error is not a RankFailure: %v", err)
	}
	if rf.Rank != 1 {
		t.Fatalf("failure attributed to rank %d, want 1", rf.Rank)
	}
	if errors.Is(err, ErrTimeout) {
		t.Fatalf("crash surfaced as a timeout: %v", err)
	}
}

// TestOpErrorDiagnostics: a blocked operation's failure message must
// name the communicator, the pending operation, and the peer's world
// rank (satellite: actionable timeout diagnostics).
func TestOpErrorDiagnostics(t *testing.T) {
	_, err := RunOpt(2, Options{Timeout: 100 * time.Millisecond}, func(c *Comm) {
		if c.Rank() == 0 {
			c.Recv(1, 0) // rank 1 never sends: deadlock
		}
	})
	if err == nil {
		t.Fatal("mismatched schedule did not error")
	}
	msg := err.Error()
	for _, want := range []string{"comm", "recv", "world rank 1", "timed out"} {
		if !contains(msg, want) {
			t.Errorf("diagnostic %q missing %q", msg, want)
		}
	}
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("deadlock error does not wrap ErrTimeout: %v", err)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestConcurrentFailuresSingleFirst: when several ranks fail
// concurrently, Run must return one primary error and keep the rest
// findable as secondaries (satellite: first-failure propagation).
func TestConcurrentFailuresSingleFirst(t *testing.T) {
	plan := &FaultPlan{
		Seed: 3,
		Specs: []FaultSpec{
			{Kind: FaultCrash, Rank: 1, Op: "p2p", Call: 1},
			{Kind: FaultCrash, Rank: 2, Op: "p2p", Call: 1},
		},
	}
	_, err := RunOpt(4, Options{Timeout: chaosTimeout, Fault: plan}, func(c *Comm) {
		ringAllreduce(c, 4)
	})
	if err == nil {
		t.Fatal("run succeeded despite two injected crashes")
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("error is not a RunError: %T %v", err, err)
	}
	if re.First == nil {
		t.Fatal("RunError has no primary failure")
	}
	var first *RankFailure
	if !errors.As(re.First, &first) {
		t.Fatalf("primary failure is not a RankFailure: %v", re.First)
	}
	// Both crashed ranks must be discoverable through the tree.
	seen := map[int]bool{}
	var collect func(error)
	collect = func(e error) {
		var rf *RankFailure
		if errors.As(e, &rf) {
			seen[rf.Rank] = true
		}
	}
	collect(re.First)
	for _, s := range re.Secondary {
		collect(s)
	}
	// Whether BOTH injections fire is scheduling-dependent: a rank that
	// observes the other's death aborts before reaching its own
	// injection point. What must hold is that every reported crash is
	// one of the injected ranks and that the primary is among them.
	if len(seen) == 0 {
		t.Fatalf("no crashed ranks reported (err %v)", err)
	}
	for r := range seen {
		if r != 1 && r != 2 {
			t.Fatalf("crash reported for uninjected rank %d: %v (err %v)", r, seen, err)
		}
	}
	if !seen[first.Rank] {
		t.Fatalf("primary failure rank %d missing from report: %v", first.Rank, seen)
	}
}

// TestShrinkAfterCrash: survivors of a crash can Agree on the failure,
// Shrink to a smaller world, and run collectives on the shrunk
// communicator.
func TestShrinkAfterCrash(t *testing.T) {
	plan := &FaultPlan{
		Seed:  5,
		Specs: []FaultSpec{{Kind: FaultCrash, Rank: 2, Op: "allreduce", Call: 0}},
	}
	var sum atomic.Value
	_, err := RunOpt(5, Options{Timeout: chaosTimeout, Fault: plan}, func(c *Comm) {
		var aerr error
		func() {
			defer RecoverComm(&aerr)
			c.Allreduce([]float64{1})
		}()
		c.Revoke()
		ok, _ := c.Agree(aerr == nil)
		if ok {
			panic("Agree returned true with a dead participant")
		}
		s := c.Shrink()
		if s.Size() != 4 {
			panic(fmt.Sprintf("shrunk size %d, want 4", s.Size()))
		}
		got := s.Allreduce([]float64{float64(c.Rank())})
		sum.Store(got[0])
	})
	if err != nil {
		t.Fatalf("recovered run still failed: %v", err)
	}
	// Survivors are world ranks 0,1,3,4: sum of their original ranks.
	if got := sum.Load().(float64); got != 0+1+3+4 {
		t.Fatalf("shrunk allreduce got %v, want 8", got)
	}
}

// TestStragglerAndDelayComplete: latency faults slow a run down but
// must never change its result or completion.
func TestStragglerAndDelayComplete(t *testing.T) {
	plan := &FaultPlan{
		Seed: 11,
		Specs: []FaultSpec{
			{Kind: FaultStraggle, Rank: 1, Op: "allreduce", Call: 1, Delay: 200 * time.Microsecond},
			{Kind: FaultDelay, Rank: -1, Prob: 0.2, Delay: 100 * time.Microsecond},
			{Kind: FaultReorder, Rank: 0, Prob: 0.3},
		},
	}
	var want atomic.Value
	_, err := RunOpt(4, Options{Timeout: chaosTimeout}, func(c *Comm) {
		want.Store(ringAllreduce(c, 6))
	})
	if err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	var got atomic.Value
	rep, err := RunOpt(4, Options{Timeout: chaosTimeout, Fault: plan}, func(c *Comm) {
		got.Store(ringAllreduce(c, 6))
	})
	if err != nil {
		t.Fatalf("faulty run failed: %v", err)
	}
	if want.Load().(float64) != got.Load().(float64) {
		t.Fatalf("latency faults changed the result: %v vs %v", got.Load(), want.Load())
	}
	injected := 0
	for i := range rep.Ranks {
		injected += len(rep.Ranks[i].Injected)
	}
	if injected == 0 {
		t.Fatal("no latency faults fired")
	}
}

// TestChaosCollectivesFailFastOnCrash is the property test of satellite 3:
// for every collective, a participant crashing at a random call index
// must leave the survivors with either a completed operation or an
// error wrapping ErrRankFailed — within the timeout, never a hang.
func TestChaosCollectivesFailFastOnCrash(t *testing.T) {
	const p = 4
	counts := func() []int {
		cs := make([]int, p)
		for i := range cs {
			cs[i] = 2
		}
		return cs
	}
	collectives := []struct {
		name string // subtest name
		op   string // runtime op label targeted by the crash spec
		run  func(c *Comm, round int)
	}{
		{"barrier", "barrier", func(c *Comm, _ int) { c.Barrier() }},
		{"bcast", "bcast", func(c *Comm, _ int) { c.Bcast(0, []float64{1, 2}) }},
		{"allgather", "allgather", func(c *Comm, _ int) { c.Allgather([]float64{float64(c.Rank())}) }},
		{"allgatherv", "allgather", func(c *Comm, _ int) { c.Allgatherv([]float64{1, 2}, counts()) }},
		{"reduce_scatter", "reduce_scatter", func(c *Comm, _ int) { c.ReduceScatter(make([]float64, 2*p), counts()) }},
		{"reduce", "reduce", func(c *Comm, _ int) { c.Reduce(0, []float64{1}) }},
		{"allreduce", "allreduce", func(c *Comm, _ int) { c.Allreduce([]float64{1}) }},
		{"gatherv", "gatherv", func(c *Comm, _ int) { c.Gatherv(0, []float64{1, 2}, counts()) }},
		{"scatterv", "scatterv", func(c *Comm, _ int) { c.Scatterv(0, make([]float64, 2*p), counts()) }},
		{"alltoallv", "alltoallv", func(c *Comm, _ int) {
			bufs := make([][]float64, p)
			for i := range bufs {
				bufs[i] = []float64{float64(i)}
			}
			c.Alltoallv(bufs)
		}},
	}
	const rounds = 3
	for _, coll := range collectives {
		coll := coll
		t.Run(coll.name, func(t *testing.T) {
			t.Parallel()
			for seed := uint64(0); seed < 6; seed++ {
				victim := int(seed) % p
				call := int64(seed % rounds)
				plan := &FaultPlan{
					Seed:  seed,
					Specs: []FaultSpec{{Kind: FaultCrash, Rank: victim, Op: coll.op, Call: call}},
				}
				done := make(chan error, 1)
				go func() {
					_, err := RunOpt(p, Options{Timeout: chaosTimeout, Fault: plan}, func(c *Comm) {
						for r := 0; r < rounds; r++ {
							coll.run(c, r)
						}
					})
					done <- err
				}()
				select {
				case err := <-done:
					if err != nil && !errors.Is(err, ErrRankFailed) {
						t.Fatalf("seed %d: error is not a rank failure: %v", seed, err)
					}
					if err == nil {
						t.Fatalf("seed %d: run succeeded despite crash of rank %d at %s#%d",
							seed, victim, coll.op, call)
					}
				case <-time.After(10 * chaosTimeout):
					t.Fatalf("seed %d: %s hung with rank %d crashed at call %d",
						seed, coll.op, victim, call)
				}
			}
		})
	}
}

// TestIrecvFailsFastOnCrash: the nonblocking path detects dead senders
// too.
func TestIrecvFailsFastOnCrash(t *testing.T) {
	plan := &FaultPlan{
		Seed:  2,
		Specs: []FaultSpec{{Kind: FaultCrash, Rank: 0, Op: "p2p", Call: 0}},
	}
	_, err := RunOpt(2, Options{Timeout: chaosTimeout, Fault: plan}, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, []float64{1}) // crashes here
			return
		}
		r := c.Irecv(0, 7) // tag 0's message may have landed; tag 7 never will
		r.Wait()
	})
	if err == nil {
		t.Fatal("run succeeded despite crashed sender")
	}
	if !errors.Is(err, ErrRankFailed) {
		t.Fatalf("Irecv failure is not a rank failure: %v", err)
	}
}

// TestCheckpointSurvivesCrash: blocks written before a crash stay
// readable by everyone after it.
func TestCheckpointSurvivesCrash(t *testing.T) {
	plan := &FaultPlan{
		Seed:  4,
		Specs: []FaultSpec{{Kind: FaultCrash, Rank: 1, Op: "barrier", Call: 0}},
	}
	var restored atomic.Value
	_, err := RunOpt(3, Options{Timeout: chaosTimeout, Fault: plan}, func(c *Comm) {
		c.Checkpoint("t", []CkptBlock{{R0: c.Rank(), Rows: 1, Cols: 1, Data: []float64{float64(10 + c.Rank())}}})
		var aerr error
		func() {
			defer RecoverComm(&aerr)
			c.Barrier()
		}()
		c.Revoke()
		c.Agree(aerr == nil)
		s := c.Shrink()
		if s.Rank() == 0 {
			restored.Store(c.Restore("t"))
		}
	})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	m := restored.Load().(map[int][]CkptBlock)
	if len(m) != 3 {
		t.Fatalf("restored %d checkpoints, want 3 (including the dead rank's)", len(m))
	}
	if m[1][0].Data[0] != 11 {
		t.Fatalf("dead rank's checkpoint corrupted: %v", m[1][0].Data)
	}
}

// TestSplitExchangeIsControlTraffic: a payload fault aimed at a rank's
// first message must not land on Split's (color, key) exchange — a
// mutated table builds communicators whose members disagree about
// membership — and must still fire on the first data message after it.
func TestSplitExchangeIsControlTraffic(t *testing.T) {
	plan := &FaultPlan{Seed: 1, Specs: []FaultSpec{
		{Kind: FaultCorrupt, Rank: 1, Call: 0, Bit: 62},
		{Kind: FaultReorder, Rank: 2, Call: 0},
	}}
	rep, err := RunOpt(4, Options{Timeout: chaosTimeout, Fault: plan}, func(c *Comm) {
		sub := c.Split(c.Rank()%2, c.Rank())
		if sub.Size() != 2 || sub.Rank() != c.Rank()/2 {
			t.Errorf("rank %d: split group size %d rank %d", c.Rank(), sub.Size(), sub.Rank())
		}
		sub.Allgather([]float64{float64(c.Rank())})
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rep.Ranks[1].Injected); n != 1 || rep.Ranks[1].Injected[0].Kind != FaultCorrupt {
		t.Fatalf("rank 1 injections %+v, want the corruption on its first data message", rep.Ranks[1].Injected)
	}
}

// TestRingBlockMismatchIsRecoverable: the ring collectives send their
// p-1 blocks to one neighbor under one tag, so a delayed message that
// the next one overtakes shows up as a block of the wrong length when
// the blocks are uneven. That
// must surface as a recoverable epoch failure (RecoverComm catches it,
// it unwraps to ErrRankFailed), not as a misuse abort.
func TestRingBlockMismatchIsRecoverable(t *testing.T) {
	plan := &FaultPlan{Seed: 1, Specs: []FaultSpec{
		{Kind: FaultDelay, Rank: 0, Op: "allgather", Call: 1, Delay: 50 * time.Millisecond},
	}}
	var caught atomic.Int32
	_, err := RunOpt(3, Options{Timeout: chaosTimeout, Fault: plan}, func(c *Comm) {
		attempt := func() (err error) {
			defer RecoverComm(&err)
			c.Allgatherv(make([]float64, 1+c.Rank()), []int{1, 2, 3})
			return nil
		}
		if err := attempt(); err != nil {
			if !errors.Is(err, ErrRevoked) || !errors.Is(err, ErrRankFailed) {
				t.Errorf("rank %d: untyped failure %v", c.Rank(), err)
			}
			caught.Add(1)
			c.Revoke()
		}
	})
	if err != nil {
		t.Fatalf("the mismatch escaped RecoverComm: %v", err)
	}
	if caught.Load() == 0 {
		t.Fatal("the delay did not disturb the ring; the test is not exercising the mismatch")
	}
}
