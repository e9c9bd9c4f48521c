package obs

import (
	"sync/atomic"
	"testing"
)

// BenchmarkRecorderBegin measures a Begin/end pair per op with every
// goroutine recording on its own rank — the actual contention pattern
// of a run, where each rank goroutine records only for itself.
func BenchmarkRecorderBegin(b *testing.B) {
	r := NewRecorder()
	var next atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		rank := int(next.Add(1) - 1)
		n := 0
		for pb.Next() {
			r.Begin(rank, "work")()
			if n++; n%(1<<16) == 0 {
				r.ResetRank(rank) // bound memory; owner-only, allowed
			}
		}
	})
}

// BenchmarkRecorderBeginDisabled is the nil-recorder fast path every
// call site pays when observability is off; it must not allocate.
func BenchmarkRecorderBeginDisabled(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Begin(0, "work")()
	}
}

// BenchmarkCausalEdgeDisabled is the nil-recorder path of causal
// message stamping — the per-message cost every send and recv pays in
// the runtime when observability is off. Must not allocate.
func BenchmarkCausalEdgeDisabled(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.EdgeAt(0, Edge{Rank: 0, Dir: EdgeSend, Peer: 1, Op: "p2p", Src: 0, Seq: uint64(i), TS: 1})
		r.CommSpanTagged(0, "p2p", "", 0, 0, 8, 8, 1, 1)
	}
}

// BenchmarkFlightRecorderDisabled covers the flight-recorder control
// surface (ring limit, drop counter, predictions) on a nil recorder —
// the configuration calls ca3dmm-run makes unconditionally when
// -postmortem is off. Must not allocate.
func BenchmarkFlightRecorderDisabled(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.SetRingLimit(4096)
		_ = r.Dropped()
		r.SetPredictions(nil)
		r.Instant(0, "fault:crash", "")
	}
}
