package dist

import (
	"fmt"
	"reflect"
	"time"

	"repro/internal/mat"
	"repro/internal/mpi"
)

// routeTag is the reserved point-to-point tag of the overlapped route
// exchange. It sits just below the runtime's user-tag ceiling (1<<20)
// so it can never collide with a collective tag, and successive
// overlapped routes on one communicator stay ordered by the runtime's
// per-(src, dst, tag) FIFO delivery.
const routeTag = 1<<20 - 7

// packRect is one rectangle of a per-destination pack plan, in local
// coordinates of the source buffer. When trans is set the rectangle is
// read transposed: rows x cols destination elements come from a
// cols x rows window of the source.
type packRect struct {
	lr, lc     int
	rows, cols int
	trans      bool
}

// unpackRect is one rectangle of a per-source unpack plan, in local
// coordinates of the destination buffer.
type unpackRect struct {
	lr, lc     int
	rows, cols int
}

// Route is a precomputed redistribution plan for one rank: which
// rectangles of its local source buffer go to which destination rank,
// and where the rectangles arriving from each source rank land in its
// local destination buffer. Building a route walks the full piece
// intersection enumeration once; applying it is pure copying and
// message exchange, so a cached route amortizes the enumeration to
// zero on iterative workloads (the tentpole of the persistent engine).
//
// This is the "small subroutine to redistribute the input A and B
// matrices from user-defined distributions to CA3DMM initial
// distributions" of the paper — pack matrix blocks, exchange with an
// alltoallv, unpack — with the transpose of op() folded into the
// exchange. The enumeration is canonical (source piece outer,
// destination piece inner), so no headers travel with the data.
type Route struct {
	Src, Dst Layout
	Trans    bool
	rank, p  int
	outR     int
	outC     int
	packs    [][]packRect
	sendLens []int
	unpacks  [][]unpackRect
	recvLens []int
	// BuildNs is the wall time spent enumerating intersections — the
	// setup cost a cache hit avoids.
	BuildNs int64
}

// BuildRoute computes the redistribution route of one rank between two
// layouts (dst describing the transpose of the source matrix when
// trans is set). Panics on shape or span disagreements.
func BuildRoute(src Layout, dst Layout, trans bool, rank int) *Route {
	t0 := time.Now()
	p := src.Procs()
	if dst.Procs() != p {
		panic(fmt.Sprintf("dist: layout spans %d/%d ranks", src.Procs(), dst.Procs()))
	}
	sr, sc := src.GlobalRows(), src.GlobalCols()
	dr, dc := dst.GlobalRows(), dst.GlobalCols()
	if trans {
		sr, sc = sc, sr
	}
	if sr != dr || sc != dc {
		panic(fmt.Sprintf("dist: global shape mismatch %dx%d (src, after op) vs %dx%d (dst)", sr, sc, dr, dc))
	}
	rt := &Route{
		Src: src, Dst: dst, Trans: trans, rank: rank, p: p,
		packs:    make([][]packRect, p),
		sendLens: make([]int, p),
		unpacks:  make([][]unpackRect, p),
		recvLens: make([]int, p),
	}
	rt.outR, rt.outC = dst.LocalShape(rank)

	myPieces := src.Pieces(rank)
	for d := 0; d < p; d++ {
		var rects []packRect
		n := 0
		for _, sp := range myPieces {
			spD := pieceInDstCoords(sp, trans)
			for _, dp := range dst.Pieces(d) {
				r0, c0, rr, cc, ok := intersect(spD, dp)
				if !ok {
					continue
				}
				pr := packRect{rows: rr, cols: cc, trans: trans}
				if trans {
					// Destination element (r0+i, c0+j) reads source
					// element (c0+j, r0+i).
					pr.lr = c0 - sp.R0 + sp.LR
					pr.lc = r0 - sp.C0 + sp.LC
				} else {
					pr.lr = r0 - sp.R0 + sp.LR
					pr.lc = c0 - sp.C0 + sp.LC
				}
				rects = append(rects, pr)
				n += rr * cc
			}
		}
		rt.packs[d], rt.sendLens[d] = rects, n
	}

	myDstPieces := dst.Pieces(rank)
	for s := 0; s < p; s++ {
		var rects []unpackRect
		n := 0
		for _, sp := range src.Pieces(s) {
			spD := pieceInDstCoords(sp, trans)
			for _, dp := range myDstPieces {
				r0, c0, rr, cc, ok := intersect(spD, dp)
				if !ok {
					continue
				}
				rects = append(rects, unpackRect{
					lr: r0 - dp.R0 + dp.LR, lc: c0 - dp.C0 + dp.LC,
					rows: rr, cols: cc,
				})
				n += rr * cc
			}
		}
		rt.unpacks[s], rt.recvLens[s] = rects, n
	}
	rt.BuildNs = time.Since(t0).Nanoseconds()
	return rt
}

// checkLocal validates the caller's local source buffer against the
// route, substituting an empty matrix for a nil block of zero extent.
func (rt *Route) checkLocal(c *mpi.Comm, local *mat.Dense) *mat.Dense {
	if c.Size() != rt.p {
		panic(fmt.Sprintf("dist: route spans %d ranks, communicator has %d", rt.p, c.Size()))
	}
	if c.Rank() != rt.rank {
		panic(fmt.Sprintf("dist: route built for rank %d applied on rank %d", rt.rank, c.Rank()))
	}
	wantR, wantC := rt.Src.LocalShape(rt.rank)
	if local == nil && (wantR == 0 || wantC == 0) {
		local = mat.New(max(wantR, 0), max(wantC, 0))
	}
	if local.Rows != wantR || local.Cols != wantC {
		panic(fmt.Sprintf("dist: rank %d local buffer %dx%d, layout expects %dx%d", rt.rank, local.Rows, local.Cols, wantR, wantC))
	}
	return local
}

// pack fills buf (of length sendLens[d]) with destination d's
// rectangles in route order.
func (rt *Route) pack(buf []float64, local *mat.Dense, d int) {
	off := 0
	for _, pr := range rt.packs[d] {
		if pr.trans {
			for i := 0; i < pr.rows; i++ {
				for j := 0; j < pr.cols; j++ {
					buf[off] = local.Data[(pr.lr+j)*local.Stride+pr.lc+i]
					off++
				}
			}
			continue
		}
		for i := 0; i < pr.rows; i++ {
			base := (pr.lr+i)*local.Stride + pr.lc
			copy(buf[off:off+pr.cols], local.Data[base:base+pr.cols])
			off += pr.cols
		}
	}
}

// unpack scatters the buffer received from source s into out.
func (rt *Route) unpack(out *mat.Dense, buf []float64, s int) {
	off := 0
	for _, ur := range rt.unpacks[s] {
		for i := 0; i < ur.rows; i++ {
			base := (ur.lr+i)*out.Stride + ur.lc
			copy(out.Data[base:base+ur.cols], buf[off:off+ur.cols])
			off += ur.cols
		}
	}
	if off != len(buf) {
		panic(fmt.Sprintf("dist: rank %d consumed %d of %d elements from rank %d (layout disagreement)", rt.rank, off, len(buf), s))
	}
}

// checkOut validates a caller-owned destination block (which may be a
// view whose stride exceeds its width).
func (rt *Route) checkOut(out *mat.Dense) {
	if out.Rows != rt.outR || out.Cols != rt.outC {
		panic(fmt.Sprintf("dist: rank %d destination buffer %dx%d, layout expects %dx%d", rt.rank, out.Rows, out.Cols, rt.outR, rt.outC))
	}
}

// Apply executes the route with the blocking sparse alltoallv — the
// path of the one-shot facade and of a persistent engine's first
// (cold) call. Send buffers and the output are drawn from ar when
// non-nil; the send buffers are returned to it before Apply returns
// (the runtime copies payloads on send).
func (rt *Route) Apply(c *mpi.Comm, local *mat.Dense, ar *mat.Arena) *mat.Dense {
	return rt.ApplyInto(c, local, ar.Get(rt.outR, rt.outC), ar)
}

// ApplyInto is Apply writing into a caller-owned destination block.
// Every element the destination layout assigns to this rank is
// overwritten (the layouts cover the global matrix, so no zeroing is
// needed).
func (rt *Route) ApplyInto(c *mpi.Comm, local, out *mat.Dense, ar *mat.Arena) *mat.Dense {
	local = rt.checkLocal(c, local)
	rt.checkOut(out)
	sendBufs := make([][]float64, rt.p)
	for d := 0; d < rt.p; d++ {
		if rt.sendLens[d] == 0 {
			continue
		}
		sendBufs[d] = ar.GetSlice(rt.sendLens[d])
		rt.pack(sendBufs[d], local, d)
	}
	recvBufs := c.NeighborAlltoallv(sendBufs, rt.recvLens)
	for d := 0; d < rt.p; d++ {
		ar.PutSlice(sendBufs[d])
	}
	for s := 0; s < rt.p; s++ {
		if rt.recvLens[s] == 0 {
			continue
		}
		rt.unpack(out, recvBufs[s], s)
	}
	return out
}

// ApplyOverlap executes the route with prefetched point-to-point
// traffic: every expected receive is posted up front as an Irecv, the
// per-destination packing then proceeds while peers' messages are in
// flight, and the unpacking drains the requests in the same pairwise
// order as the blocking exchange. The result is element-identical to
// Apply — the same rectangles move, only the schedule overlaps packing
// with communication — so a persistent engine can switch to this path
// on warm calls without perturbing bit-exact reproducibility.
func (rt *Route) ApplyOverlap(c *mpi.Comm, local *mat.Dense, ar *mat.Arena) *mat.Dense {
	return rt.ApplyOverlapInto(c, local, ar.Get(rt.outR, rt.outC), ar)
}

// ApplyOverlapInto is ApplyOverlap writing into a caller-owned
// destination block.
func (rt *Route) ApplyOverlapInto(c *mpi.Comm, local, out *mat.Dense, ar *mat.Arena) *mat.Dense {
	local = rt.checkLocal(c, local)
	rt.checkOut(out)
	me, p := rt.rank, rt.p
	reqs := make([]*mpi.Request, p)
	for s := 1; s < p; s++ {
		src := (me - s + p) % p
		if rt.recvLens[src] > 0 {
			reqs[src] = c.Irecv(src, routeTag)
		}
	}
	// Self rectangles never leave the rank: pack and unpack through a
	// scratch buffer while the remote messages fly.
	if rt.sendLens[me] > 0 {
		buf := ar.GetSlice(rt.sendLens[me])
		rt.pack(buf, local, me)
		rt.unpack(out, buf, me)
		ar.PutSlice(buf)
	}
	for s := 1; s < p; s++ {
		dst := (me + s) % p
		if rt.sendLens[dst] == 0 {
			continue
		}
		buf := ar.GetSlice(rt.sendLens[dst])
		rt.pack(buf, local, dst)
		c.Send(dst, routeTag, buf)
		ar.PutSlice(buf)
	}
	for s := 1; s < p; s++ {
		src := (me - s + p) % p
		if reqs[src] == nil {
			continue
		}
		got := reqs[src].Wait()
		if len(got) != rt.recvLens[src] {
			panic(fmt.Sprintf("dist: rank %d route recv from %d got %d elements, expected %d (layout disagreement)", me, src, len(got), rt.recvLens[src]))
		}
		rt.unpack(out, got, src)
	}
	return out
}

// TransferBytes returns the total payload this rank sends when the
// route is applied (8 bytes per element, self traffic excluded).
func (rt *Route) TransferBytes() int64 {
	var n int64
	for d, l := range rt.sendLens {
		if d != rt.rank {
			n += int64(l)
		}
	}
	return 8 * n
}

// routeKey identifies a cached route. Layout values are compared by
// value: the built-in layout types are comparable structs and Explicit
// layouts compare by pointer, which is exactly the stability a
// persistent plan provides.
type routeKey struct {
	src, dst Layout
	trans    bool
}

// RouteCache memoizes routes per rank. Not safe for concurrent use —
// each rank owns one (it lives inside the rank's execution state).
type RouteCache struct {
	rank         int
	m            map[routeKey]*Route
	hits, misses int64
	buildNs      int64
}

// NewRouteCache returns an empty cache for one rank.
func NewRouteCache(rank int) *RouteCache {
	return &RouteCache{rank: rank, m: make(map[routeKey]*Route)}
}

// Get returns the route between two layouts, building and memoizing it
// on first use. The second return reports whether this was a cache
// hit. Layouts whose dynamic type is not comparable are served uncached.
func (rc *RouteCache) Get(src, dst Layout, trans bool) (*Route, bool) {
	keyable := comparableLayout(src) && comparableLayout(dst)
	if keyable {
		if rt := rc.m[routeKey{src, dst, trans}]; rt != nil {
			rc.hits++
			return rt, true
		}
	}
	rt := BuildRoute(src, dst, trans, rc.rank)
	rc.misses++
	rc.buildNs += rt.BuildNs
	if keyable {
		rc.m[routeKey{src, dst, trans}] = rt
	}
	return rt, false
}

// Stats reports cumulative cache hits and misses.
func (rc *RouteCache) Stats() (hits, misses int64) { return rc.hits, rc.misses }

// BuildNs reports the total nanoseconds spent building routes through
// this cache — the setup cost hits avoid.
func (rc *RouteCache) BuildNs() int64 { return rc.buildNs }

func comparableLayout(l Layout) bool {
	t := reflect.TypeOf(l)
	return t != nil && t.Comparable()
}
