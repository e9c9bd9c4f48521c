package mpi

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Undefined is the color passed to Split by ranks that should not be
// members of any resulting communicator.
const Undefined = -1

// maxUserTag is the upper bound (exclusive) for user-supplied message
// tags; tags at or above it are reserved for collectives.
const maxUserTag = 1 << 20

// collTagWindow bounds the number of distinct collective tags, keeping
// the router map small during long runs. Collectives within one
// communicator are ordered, so reuse this far apart is safe.
const collTagWindow = 1 << 12

// revocation is the shared revoked-flag of one communicator epoch:
// the world communicator and every Shrink result get a fresh one, and
// Split-derived communicators share their parent's, so revoking any
// communicator of an epoch wakes blocked operations across the whole
// epoch (ULFM MPI_Comm_revoke semantics).
type revocation struct {
	once sync.Once
	ch   chan struct{}
}

func (rv *revocation) revoke() { rv.once.Do(func() { close(rv.ch) }) }

func (rv *revocation) revoked() bool {
	select {
	case <-rv.ch:
		return true
	default:
		return false
	}
}

// Comm is a communicator: an ordered group of ranks that can exchange
// point-to-point messages and perform collectives. Each rank holds its
// own Comm value; Comm methods are called by that rank's goroutine
// only.
type Comm struct {
	w          *world
	ctx        string // communicator identity, equal across members
	rank       int    // my rank within this communicator
	ranks      []int  // world rank of each member
	stats      *Stats
	timeout    time.Duration
	worldRank  int
	collSeq    int // per-rank collective sequence counter (the collective's identity)
	tagSeq     int // collectives since the last ResetCollTags (their message tags)
	splitSeq   int // per-rank split counter
	agreeSeq   int // per-rank agreement counter
	shrinkSeq  int // per-rank shrink counter
	replaceSeq int // per-rank replace counter
	inj        *injector
	rv         *revocation
	obs        *obs.Recorder // nil when observability is off
	epoch      int           // causal epoch: 0 for the world, bumped by Shrink
	async      bool          // clone driven by a background goroutine, not the rank owner
	ctl        bool          // inside Split's exchange: control traffic, exempt from message-mutating faults
}

// Rank returns the caller's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.ranks) }

// WorldRank returns the caller's rank in the world communicator.
func (c *Comm) WorldRank() int { return c.worldRank }

// Stats returns the caller's statistics record (shared with the final
// Report, indexed by world rank).
func (c *Comm) Stats() *Stats { return c.stats }

func (c *Comm) checkPeer(peer int, op string) {
	if peer < 0 || peer >= len(c.ranks) {
		c.w.fail(fmt.Errorf("mpi: rank %d (%s): %s peer %d out of range [0,%d)",
			c.rank, c.ctx, op, peer, len(c.ranks)))
	}
}

func (c *Comm) checkTag(tag int) {
	if tag < 0 || tag >= maxUserTag {
		c.w.fail(fmt.Errorf("mpi: rank %d: user tag %d out of range [0,%d)", c.rank, tag, maxUserTag))
	}
}

// abort unwinds the calling rank with a recoverable communication
// failure; a self-healing executor catches it with RecoverComm, and
// otherwise it surfaces from Run as the rank's error.
func (c *Comm) abort(err error) {
	panic(commAbort{err})
}

// opError builds the diagnostic for a failed blocking operation. It
// names the communicator context, the pending operation, the direction,
// and the peer's communicator and world ranks, so that a chaos failure
// deep inside a split communicator can be traced back to a concrete
// rank and collective.
func (c *Comm) opError(op, dir string, peer int, sentinel error) error {
	var why string
	switch sentinel {
	case ErrTimeout:
		why = fmt.Sprintf("timed out after %v (deadlock or mismatched schedule)", c.timeout)
	case ErrRevoked:
		why = "communicator revoked"
	default:
		why = "peer rank failed"
		if cause := c.w.causeOf(c.ranks[peer]); cause != nil {
			why = fmt.Sprintf("peer rank failed (%v)", cause)
		}
	}
	return fmt.Errorf("mpi: rank %d (comm %q): pending %s %s, peer %d (world rank %d): %s: %w",
		c.rank, c.ctx, op, dir, peer, c.ranks[peer], why, sentinel)
}

// peerSentinel picks the typed sentinel for an abort caused by the
// given dead world rank: ErrUnreachable when the peer was fenced by the
// failure detector or retransmit budget, ErrRankFailed otherwise. Both
// unwrap to ErrRankFailed, so recovery treats them alike.
func (w *world) peerSentinel(worldRank int) error {
	if cause := w.causeOf(worldRank); cause != nil && errors.Is(cause, ErrUnreachable) {
		return ErrUnreachable
	}
	return ErrRankFailed
}

// deliver routes one outgoing message: the reliable transport (when
// on) sequences it and arms its retransmit loop, the fault hook may
// corrupt, duplicate, stash, delay, drop, or crash on it; whatever
// envelopes remain are enqueued into the destination mailbox. The
// caller must own data.
func (c *Comm) deliver(op string, dst, tag int, data []float64) {
	c.checkSelfAlive()
	key := boxKey{ctx: c.ctx, src: c.worldRank, dst: c.ranks[dst], tag: tag}
	env := envelope{data: data}
	// Causal stamp at the fault-hook boundary: the ID is assigned
	// before the transport registers the envelope, so retransmitted,
	// duplicated, and delayed copies all carry the original's identity
	// and the logical message contributes exactly one send edge.
	if c.obs != nil {
		env.cseq = c.w.nextCausalSeq(c.worldRank)
		env.cep = int32(c.epoch)
	}
	if tr := c.w.tr; tr != nil {
		// Register before the fault hook: a first copy lost to a drop,
		// stash, or crash is then still covered by retransmission.
		tr.register(key, op, &env)
	}
	for _, e := range c.event(op, key, env, true) {
		c.enqueue(op, dst, key, e)
	}
	// The send edge is recorded after the fault hook and the enqueue,
	// so its timestamp reflects when the message actually entered the
	// fabric (a straggler's injected sleep delays it, which is what the
	// blame attribution measures). A crash unwinds before this point
	// and leaves no dangling edge.
	c.obsSendEdge(op, key.dst, env, int64(8*len(data)))
	c.stats.BytesSent += int64(8 * len(data))
	c.stats.MsgsSent++
	c.stats.addOp(op, int64(8*len(data)))
}

// enqueue blocks until the destination mailbox accepts env, failing
// fast when the destination rank is dead or the epoch is revoked. A
// message crossing an active partition is black-holed: the sender does
// not block (the fabric accepted it), the payload just never arrives —
// until a retransmit loop redelivers it after the heal.
func (c *Comm) enqueue(op string, dst int, key boxKey, env envelope) {
	if c.w.isDead(key.dst) {
		c.abort(c.opError(op, "send", dst, c.w.peerSentinel(key.dst)))
	}
	if c.rv.revoked() {
		c.abort(c.opError(op, "send", dst, ErrRevoked))
	}
	if c.w.partitionBlocked(key.src, key.dst) {
		if env.seq == 0 {
			c.w.noteLost(key.src, op, "black-holed by partition")
		}
		return
	}
	box := c.w.box(key)
	// Fast path: an uncontended mailbox accepts without arming a
	// timeout. A `case <-time.After(...)` arm would allocate a
	// run-timeout timer on EVERY send — abandoned timers that pile up
	// in the runtime timer heap for the rest of the run and throttle
	// tight iterative loops with GC pressure.
	select {
	case box <- env:
		return
	default:
	}
	t := time.NewTimer(c.timeout)
	defer t.Stop()
	select {
	case box <- env:
	case <-c.w.deadChan(key.dst):
		c.abort(c.opError(op, "send", dst, c.w.peerSentinel(key.dst)))
	case <-c.rv.ch:
		c.abort(c.opError(op, "send", dst, ErrRevoked))
	case <-t.C:
		c.abort(c.opError(op, "send", dst, ErrTimeout))
	}
}

// receive blocks until a message from src arrives, failing fast with
// ErrRankFailed when src has died (after draining anything it sent
// before dying) or ErrRevoked when the epoch was revoked. Sequenced
// duplicates — retransmitted copies racing their original, or injected
// FaultDuplicate copies — are acknowledged and suppressed here, and
// arrivals that overtook a retransmitted predecessor are reordered, so
// the caller sees each message exactly once, in send order.
func (c *Comm) receive(op string, src, tag int) []float64 {
	c.checkSelfAlive()
	key := boxKey{ctx: c.ctx, src: c.ranks[src], dst: c.worldRank, tag: tag}
	c.event(op, key, envelope{}, false)
	ch := c.w.box(key)
	accept := func(e envelope) []float64 {
		c.obsRecvEdge(op, key.src, e)
		c.stats.BytesRecv += int64(8 * len(e.data))
		c.stats.MsgsRecv++
		c.stats.addOpRecv(op, int64(8*len(e.data)))
		return e.data
	}
	for {
		if e, ok := c.w.nextBuffered(key); ok {
			return accept(e)
		}
		var env envelope
		// Fast path: a message already in the mailbox is taken without
		// arming a timeout (see enqueue for why the timer matters).
		select {
		case env = <-ch:
		default:
			env = c.recvSlow(op, src, key, ch)
		}
		if e, ok := c.w.admitSeq(key, env, op); ok {
			return accept(e)
		}
	}
}

// recvSlow blocks for the next envelope from key's mailbox with a
// stoppable timeout timer, so that only genuinely blocking receives pay
// for (and then release) a timer.
func (c *Comm) recvSlow(op string, src int, key boxKey, ch chan envelope) envelope {
	t := time.NewTimer(c.timeout)
	defer t.Stop()
	select {
	case env := <-ch:
		return env
	case <-c.w.deadChan(key.src):
		// The sender may have enqueued this message before dying.
		select {
		case env := <-ch:
			return env
		default:
			c.abort(c.opError(op, "recv", src, c.w.peerSentinel(key.src)))
		}
	case <-c.rv.ch:
		c.abort(c.opError(op, "recv", src, ErrRevoked))
	case <-t.C:
		c.abort(c.opError(op, "recv", src, ErrTimeout))
	}
	panic("unreachable: abort always panics")
}

// Send sends a copy of data to dst with the given tag. It normally
// completes immediately (eager buffering) and blocks only when the
// destination queue is full.
func (c *Comm) Send(dst, tag int, data []float64) {
	defer c.commEnd(c.commBegin("p2p", 1))
	c.checkPeer(dst, "Send")
	c.checkTag(tag)
	c.send(dst, tag, data)
}

func (c *Comm) send(dst, tag int, data []float64) {
	cp := make([]float64, len(data))
	copy(cp, data)
	c.sendOwned(dst, tag, cp)
}

// sendOwned enqueues data without copying; the caller must not touch
// data afterwards.
func (c *Comm) sendOwned(dst, tag int, data []float64) {
	c.deliver("p2p", dst, tag, data)
}

// Recv receives a message from src with the given tag, returning the
// payload. It blocks until the message arrives or the run times out.
func (c *Comm) Recv(src, tag int) []float64 {
	defer c.commEnd(c.commBegin("p2p", 1))
	c.checkPeer(src, "Recv")
	c.checkTag(tag)
	return c.recv(src, tag)
}

func (c *Comm) recv(src, tag int) []float64 {
	return c.receive("p2p", src, tag)
}

// RecvInto receives from src/tag into buf, which must have exactly the
// length of the incoming message.
func (c *Comm) RecvInto(src, tag int, buf []float64) {
	data := c.Recv(src, tag)
	if len(data) != len(buf) {
		c.w.fail(fmt.Errorf("mpi: rank %d: RecvInto buffer length %d != message length %d",
			c.rank, len(buf), len(data)))
	}
	copy(buf, data)
}

// Sendrecv sends sendData to dst and receives a message from src in a
// deadlock-free manner (the send is eager). Both use the same tag.
func (c *Comm) Sendrecv(dst, src, tag int, sendData []float64) []float64 {
	defer c.commEnd(c.commBegin("p2p", 2))
	c.checkPeer(dst, "Sendrecv")
	c.checkPeer(src, "Sendrecv")
	c.checkTag(tag)
	c.send(dst, tag, sendData)
	return c.recv(src, tag)
}

// enterColl records a collective call and gives the fault layer an
// injection point at the collective boundary itself, so a crash or
// straggle can fire on entry even for collectives whose first action
// is a receive.
func (c *Comm) enterColl(op string) {
	c.stats.addCall(op)
	c.event(op, boxKey{}, envelope{}, false)
}

// nextCollTag reserves the tag pair used by the next collective. All
// members call collectives in the same order, so the sequence numbers
// agree across ranks.
func (c *Comm) nextCollTag() int {
	tag := maxUserTag + c.tagSeq%collTagWindow
	c.tagSeq++
	c.collSeq++
	return tag
}

// ResetCollTags restarts the communicator's collective tag sequence.
// Every member must call it at the same point of its collective
// sequence, with no collective in flight. A mailbox exists per (pair,
// tag) and is never deleted, so a resident loop calls this at the top
// of every iteration: each iteration then reuses the previous one's
// mailboxes instead of minting a fresh set per collective until the
// tag window wraps. Collectives of consecutive iterations that share a
// tag are still separated by the per-pair FIFO order.
func (c *Comm) ResetCollTags() { c.tagSeq = 0 }

// csend and crecv are the collective-internal message primitives; they
// account traffic to the named collective operation.
func (c *Comm) csend(dst, tag int, data []float64, op string) {
	cp := make([]float64, len(data))
	copy(cp, data)
	c.deliver(op, dst, tag, cp)
}

func (c *Comm) crecv(src, tag int, op string) []float64 {
	return c.receive(op, src, tag)
}

// Split partitions the communicator: ranks passing the same color form
// a new communicator, ordered by (key, parent rank). Ranks passing
// Undefined receive nil. Split is collective over c.
func (c *Comm) Split(color, key int) *Comm {
	if color < 0 && color != Undefined {
		c.w.fail(fmt.Errorf("mpi: rank %d: negative split color %d", c.rank, color))
	}
	// Allgather (color, key) pairs so each rank can deterministically
	// compute every subgroup. A mutated table would build communicators
	// whose members disagree about membership — corrupt runtime state,
	// not corrupt data — so the exchange is exempt from message-mutating
	// faults; crashes, drops and partitions still reach it.
	c.ctl = true
	pairs := c.Allgather([]float64{float64(color), float64(key)})
	c.ctl = false
	c.splitSeq++

	if color == Undefined {
		return nil
	}
	type member struct{ key, parentRank int }
	var members []member
	for r := 0; r < c.Size(); r++ {
		col := int(pairs[2*r])
		if col == color {
			members = append(members, member{key: int(pairs[2*r+1]), parentRank: r})
		}
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].key != members[j].key {
			return members[i].key < members[j].key
		}
		return members[i].parentRank < members[j].parentRank
	})
	newRanks := make([]int, len(members))
	myNew := -1
	for i, mb := range members {
		newRanks[i] = c.ranks[mb.parentRank]
		if mb.parentRank == c.rank {
			myNew = i
		}
	}
	return &Comm{
		w:         c.w,
		ctx:       fmt.Sprintf("%s/%d.%d", c.ctx, c.splitSeq, color),
		rank:      myNew,
		ranks:     newRanks,
		stats:     c.stats,
		timeout:   c.timeout,
		worldRank: c.worldRank,
		inj:       c.inj,
		rv:        c.rv, // same epoch: a revoke reaches split comms too
		obs:       c.obs,
		epoch:     c.epoch,
		async:     c.async,
	}
}

// Revoke marks the communicator's epoch as revoked: every blocked or
// future operation on this communicator and any communicator split
// from it aborts with ErrRevoked (ULFM MPI_Comm_revoke). A rank that
// observes a failure revokes the epoch so that peers blocked on
// third-party ranks do not have to wait out the timeout before joining
// recovery.
func (c *Comm) Revoke() {
	if c.obs != nil {
		c.obsInstant("recover:revoke", c.ctx)
	}
	c.rv.revoke()
}

// revocationFor returns the shared revocation of a shrink epoch,
// creating it on first use. Every survivor of a Shrink derives the
// same epoch ctx, so they all resolve to the same instance.
func (w *world) revocationFor(ctx string) *revocation {
	w.ftMu.Lock()
	defer w.ftMu.Unlock()
	rv := w.rvs[ctx]
	if rv == nil {
		rv = &revocation{ch: make(chan struct{})}
		w.rvs[ctx] = rv
	}
	return rv
}

// agreeState is one in-progress agreement rendezvous, keyed by
// (communicator ctx, agreement sequence number) in world.agrees.
type agreeState struct {
	flags map[int]bool // arrived world ranks and their flags
	res   *agreeResult
}

type agreeResult struct {
	allOK     bool
	survivors []int // live arrived members, in communicator order
}

// Agree is a fault-tolerant agreement over the communicator's live
// members (ULFM MPI_Comm_agree analogue): it returns the logical AND
// of the flags contributed by the members that are still alive,
// together with their world ranks in communicator order. Dead members
// are excluded and force the result to false, so a true result
// guarantees that every member is alive and contributed true. Unlike
// the regular collectives, Agree completes even when members have
// died, making it the safe rendezvous point after a failed
// communication phase. All live members must call Agree the same
// number of times on the same communicator.
func (c *Comm) Agree(ok bool) (bool, []int) {
	c.checkSelfAlive()
	key := fmt.Sprintf("%s#a%d", c.ctx, c.agreeSeq)
	c.agreeSeq++
	res := c.w.agree(c, key, ok)
	if res == nil {
		c.abort(c.opError("agree", "rendezvous", c.rank, ErrTimeout))
	}
	if c.obs != nil {
		c.obsInstant("recover:agree", fmt.Sprintf("ok=%v survivors=%d", res.allOK, len(res.survivors)))
	}
	return res.allOK, append([]int(nil), res.survivors...)
}

// agree runs the shared-state rendezvous for one Agree call: the last
// arriving live member computes the result once, and everyone returns
// the same snapshot. Returns nil on timeout.
func (w *world) agree(c *Comm, key string, ok bool) *agreeResult {
	deadline := time.Now().Add(c.timeout)
	timer := time.AfterFunc(c.timeout, func() {
		w.ftMu.Lock()
		w.ftCond.Broadcast()
		w.ftMu.Unlock()
	})
	defer timer.Stop()

	w.ftMu.Lock()
	defer w.ftMu.Unlock()
	st := w.agrees[key]
	if st == nil {
		st = &agreeState{flags: make(map[int]bool)}
		w.agrees[key] = st
	}
	st.flags[c.worldRank] = ok
	w.ftCond.Broadcast()
	for {
		if st.res == nil {
			complete, allOK := true, true
			var survivors []int
			for _, r := range c.ranks {
				// A parked rank (fenced, waiting in the lobby for
				// readmission) is excluded exactly like a dead one: it
				// will never arrive at this epoch's rendezvous, and its
				// absence forces the result to false.
				if w.deadCause[r] != nil || w.parkedLocked(r) {
					allOK = false
					continue
				}
				flag, arrived := st.flags[r]
				if !arrived {
					complete = false
					break
				}
				if !flag {
					allOK = false
				}
				survivors = append(survivors, r)
			}
			if complete {
				st.res = &agreeResult{allOK: allOK, survivors: survivors}
				w.ftCond.Broadcast()
			}
		}
		if st.res != nil {
			return st.res
		}
		if time.Now().After(deadline) {
			return nil
		}
		w.ftCond.Wait()
	}
}

// Shrink builds a new communicator from the surviving members (ULFM
// MPI_Comm_shrink analogue) and absolves the injected crashes of the
// dead ones, so a successfully recovered run is not reported as
// failed. The result is a fresh epoch: it has a clean revocation flag
// and a new message context, so stale traffic from the failed epoch
// cannot leak into it. All surviving members must call Shrink
// together; it is itself fault-tolerant (a member dying during the
// shrink is simply excluded).
func (c *Comm) Shrink() *Comm {
	c.checkSelfAlive()
	key := fmt.Sprintf("%s#s%d", c.ctx, c.shrinkSeq)
	c.shrinkSeq++
	res := c.w.agree(c, key, true)
	if res == nil {
		c.abort(c.opError("shrink", "rendezvous", c.rank, ErrTimeout))
	}
	c.w.absolveDead(c.ranks)
	if c.obs != nil {
		c.obsInstant("recover:shrink", fmt.Sprintf("%d -> %d ranks", len(c.ranks), len(res.survivors)))
	}
	myNew := -1
	for i, r := range res.survivors {
		if r == c.worldRank {
			myNew = i
		}
	}
	if myNew < 0 {
		// Fenced between the agreement and here: the survivors have
		// excluded this rank, so it must leave the run.
		panic(rankFenced{})
	}
	ctx := fmt.Sprintf("%s!%d", c.ctx, c.shrinkSeq)
	return &Comm{
		w:         c.w,
		ctx:       ctx,
		rank:      myNew,
		ranks:     res.survivors,
		stats:     c.stats,
		timeout:   c.timeout,
		worldRank: c.worldRank,
		inj:       c.inj,
		obs:       c.obs,
		epoch:     c.epoch + 1, // fresh causal epoch for the shrunken group
		// The epoch's revocation must be the SAME instance on every
		// survivor — a revoke only wakes peers if they select on the
		// same channel — so it is registered in the world under the
		// epoch's ctx, which all survivors compute identically.
		rv: c.w.revocationFor(ctx),
	}
}

// Mailboxes returns the number of mailboxes the world has created so
// far, over all communicators. Mailboxes are never deleted, so a
// resident loop whose count keeps growing is leaking them (a
// communicator split or a fresh tag per iteration).
func (c *Comm) Mailboxes() int {
	c.w.mu.Lock()
	defer c.w.mu.Unlock()
	return len(c.w.boxes)
}

// RecordAlloc registers sz bytes of live matrix buffers; the runtime
// tracks the per-rank peak for the paper's memory-usage comparisons
// (Table I).
func (c *Comm) RecordAlloc(sz int64) {
	c.stats.CurAlloc += sz
	if c.stats.CurAlloc > c.stats.PeakAlloc {
		c.stats.PeakAlloc = c.stats.CurAlloc
	}
}

// ReleaseAlloc unregisters sz bytes previously passed to RecordAlloc.
func (c *Comm) ReleaseAlloc(sz int64) {
	c.stats.CurAlloc -= sz
}
