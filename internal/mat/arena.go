package mat

// Arena is a size-classed free list of float64 slabs for the buffers a
// fixed-shape multiplication needs on every call: packed native-layout
// operands, padded Cannon blocks, replication assemblies, and
// reduce-scatter staging. A persistent execution state (see
// internal/core.ExecState) owns one Arena per rank; after the first
// call every Get is served from the free list, so repeated multiplies
// of the same shape are allocation-flat.
//
// An Arena is deliberately not safe for concurrent use — each rank has
// its own. A nil *Arena is valid and degrades to plain allocation, so
// one code path serves both the one-shot and the persistent engine.
type Arena struct {
	free         map[int][][]float64
	hits, misses int64
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{free: make(map[int][][]float64)} }

// GetSlice returns a zeroed slice of length n, recycled when a slab of
// that exact length is free. Empty slices (the blocks of idle ranks)
// are not slabs: PutSlice drops them, so they bypass the free list and
// its counters here too.
func (a *Arena) GetSlice(n int) []float64 {
	if a == nil || n == 0 {
		return make([]float64, n)
	}
	if l := a.free[n]; len(l) > 0 {
		s := l[len(l)-1]
		l[len(l)-1] = nil
		a.free[n] = l[:len(l)-1]
		a.hits++
		clear(s)
		return s
	}
	a.misses++
	return make([]float64, n)
}

// PutSlice returns a slab to the free list. The caller must not touch
// it afterwards.
func (a *Arena) PutSlice(s []float64) {
	if a == nil || len(s) == 0 {
		return
	}
	a.free[len(s)] = append(a.free[len(s)], s)
}

// Get returns a zeroed r x c matrix backed by an arena slab —
// mat.New semantics with recycling.
func (a *Arena) Get(r, c int) *Dense {
	if a == nil {
		return New(r, c)
	}
	return &Dense{Rows: r, Cols: c, Stride: c, Data: a.GetSlice(r * c)}
}

// Put returns a matrix's backing slab to the free list. Views (whose
// stride exceeds their width) are ignored: the slab belongs to the
// parent. The caller must not touch d afterwards.
func (a *Arena) Put(d *Dense) {
	if a == nil || d == nil || d.Stride != d.Cols {
		return
	}
	a.PutSlice(d.Data)
}

// Stats reports the cumulative free-list hits and misses — the
// allocation-flat regression tests assert that misses stop growing
// once a shape's steady state is reached.
func (a *Arena) Stats() (hits, misses int64) {
	if a == nil {
		return 0, 0
	}
	return a.hits, a.misses
}
