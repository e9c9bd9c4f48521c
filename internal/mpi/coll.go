package mpi

import "fmt"

// This file implements the collective operations on top of
// point-to-point messages, using the classical distributed algorithms
// whose costs the CA3DMM paper assumes in its Section III-D analysis:
// binomial trees for broadcast/reduce, recursive doubling for
// power-of-two allgathers, rings for general allgathers and
// reduce-scatters (bandwidth-optimal), pairwise exchange for
// alltoallv, and a dissemination barrier.

// Barrier blocks until every rank of the communicator has entered it.
func (c *Comm) Barrier() {
	p := c.Size()
	defer c.commEnd(c.commBegin("barrier", p-1))
	tag := c.nextCollTag()
	c.enterColl("barrier")
	if p == 1 {
		return
	}
	token := []float64{}
	for k := 1; k < p; k <<= 1 {
		dst := (c.rank + k) % p
		src := (c.rank - k + p) % p
		c.csend(dst, tag, token, "barrier")
		c.crecv(src, tag, "barrier")
	}
}

// Bcast broadcasts root's data to every rank using a binomial tree.
// Non-root callers pass the buffer to fill (its length must match the
// root's); the filled buffer is returned.
func (c *Comm) Bcast(root int, data []float64) []float64 {
	c.checkPeer(root, "Bcast")
	p := c.Size()
	defer c.commEnd(c.commBegin("bcast", p-1))
	tag := c.nextCollTag()
	c.enterColl("bcast")
	if p == 1 {
		return data
	}
	rel := (c.rank - root + p) % p
	mask := 1
	for mask < p {
		if rel&mask != 0 {
			src := ((rel ^ mask) + root) % p
			got := c.crecv(c.commIndex(src), tag, "bcast")
			if len(got) != len(data) {
				c.w.fail(fmt.Errorf("mpi: rank %d: Bcast buffer length %d != message length %d",
					c.rank, len(data), len(got)))
			}
			copy(data, got)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < p {
			dst := ((rel + mask) + root) % p
			c.csend(c.commIndex(dst), tag, data, "bcast")
		}
		mask >>= 1
	}
	return data
}

// commIndex is the identity on communicator ranks; it exists to make
// call sites read as "rank within this communicator".
func (c *Comm) commIndex(r int) int { return r }

// Allgather gathers equal-size contributions from every rank and
// returns them concatenated in rank order. All ranks must contribute
// slices of the same length. Uses recursive doubling when the
// communicator size is a power of two and a ring otherwise.
func (c *Comm) Allgather(send []float64) []float64 {
	p := c.Size()
	defer c.commEnd(c.commBegin("allgather", p-1))
	c.enterColl("allgather")
	if p == 1 {
		out := make([]float64, len(send))
		copy(out, send)
		return out
	}
	if p&(p-1) == 0 {
		return c.allgatherRecDouble(send)
	}
	// Equal contributions on a non-power-of-two group: Bruck's
	// algorithm needs only ceil(log2 P) rounds against the ring's P-1.
	return c.allgatherBruck(send)
}

// allgatherBruck implements Bruck's allgather: each round doubles the
// number of held blocks by exchanging with ranks at power-of-two
// distances, then the result is rotated into rank order.
func (c *Comm) allgatherBruck(send []float64) []float64 {
	p := c.Size()
	n := len(send)
	tag := c.nextCollTag()
	// blocks[i] holds block (rank + i) mod p.
	blocks := make([]float64, 0, p*n)
	blocks = append(blocks, send...)
	have := 1
	for dist := 1; have < p; dist <<= 1 {
		cnt := dist
		if cnt > p-have {
			cnt = p - have
		}
		dst := (c.rank - dist + p) % p
		src := (c.rank + dist) % p
		c.csend(dst, tag, blocks[:cnt*n], "allgather")
		got := c.crecv(src, tag, "allgather")
		if len(got) != cnt*n {
			c.w.fail(fmt.Errorf("mpi: rank %d: Allgather mismatched contribution sizes (got %d, want %d)",
				c.rank, len(got), cnt*n))
		}
		blocks = append(blocks, got...)
		have += cnt
	}
	out := make([]float64, p*n)
	for i := 0; i < p; i++ {
		idx := (c.rank + i) % p
		copy(out[idx*n:(idx+1)*n], blocks[i*n:(i+1)*n])
	}
	return out
}

// Allgatherv gathers variable-size contributions; counts[i] is the
// length rank i contributes. The result is the concatenation in rank
// order. Uses a ring.
func (c *Comm) Allgatherv(send []float64, counts []int) []float64 {
	p := c.Size()
	defer c.commEnd(c.commBegin("allgather", p-1))
	c.enterColl("allgather")
	if len(counts) != p {
		c.w.fail(fmt.Errorf("mpi: rank %d: Allgatherv counts length %d != comm size %d", c.rank, len(counts), p))
	}
	if len(send) != counts[c.rank] {
		c.w.fail(fmt.Errorf("mpi: rank %d: Allgatherv contribution length %d != counts[%d]=%d",
			c.rank, len(send), c.rank, counts[c.rank]))
	}
	if p == 1 {
		out := make([]float64, len(send))
		copy(out, send)
		return out
	}
	return c.allgathervRing(send, counts)
}

func (c *Comm) allgatherRecDouble(send []float64) []float64 {
	p := c.Size()
	n := len(send)
	tag := c.nextCollTag()
	out := make([]float64, p*n)
	copy(out[c.rank*n:(c.rank+1)*n], send)
	for d := 1; d < p; d <<= 1 {
		partner := c.rank ^ d
		base := c.rank &^ (d - 1) // first block index I currently hold
		pbase := partner &^ (d - 1)
		c.csend(partner, tag, out[base*n:(base+d)*n], "allgather")
		got := c.crecv(partner, tag, "allgather")
		if len(got) != d*n {
			c.w.fail(fmt.Errorf("mpi: rank %d: Allgather mismatched contribution sizes (got %d, want %d)",
				c.rank, len(got), d*n))
		}
		copy(out[pbase*n:(pbase+d)*n], got)
	}
	return out
}

// abortBlock aborts a ring collective that received a block of the
// wrong length. The ring sends its p-1 blocks to the same neighbor
// under one tag, so — the local arguments having been validated on
// entry — this is what a delayed or reordered message looks like when
// the blocks are uneven. It is a recoverable failure of the epoch, not
// a misuse abort: a self-healing executor retries in a fresh one.
func (c *Comm) abortBlock(op string, block, got, want int) {
	c.abort(fmt.Errorf("mpi: rank %d (comm %q): %s block %d length %d != counts %d (reordered traffic or mismatched counts): %w",
		c.rank, c.ctx, op, block, got, want, ErrRevoked))
}

func (c *Comm) allgathervRing(send []float64, counts []int) []float64 {
	p := c.Size()
	tag := c.nextCollTag()
	offs := make([]int, p+1)
	for i := 0; i < p; i++ {
		offs[i+1] = offs[i] + counts[i]
	}
	out := make([]float64, offs[p])
	copy(out[offs[c.rank]:offs[c.rank+1]], send)
	right := (c.rank + 1) % p
	left := (c.rank - 1 + p) % p
	for s := 0; s < p-1; s++ {
		outIdx := (c.rank - s + p) % p
		inIdx := (c.rank - s - 1 + 2*p) % p
		c.csend(right, tag, out[offs[outIdx]:offs[outIdx+1]], "allgather")
		got := c.crecv(left, tag, "allgather")
		if len(got) != counts[inIdx] {
			c.abortBlock("Allgatherv", inIdx, len(got), counts[inIdx])
		}
		copy(out[offs[inIdx]:offs[inIdx+1]], got)
	}
	return out
}

// ReduceScatter reduces (element-wise sum) the concatenated send
// buffers of all ranks and scatters the result: rank i receives the
// i-th chunk, of length counts[i]. send must have length sum(counts).
// Uses the bandwidth-optimal ring algorithm.
func (c *Comm) ReduceScatter(send []float64, counts []int) []float64 {
	p := c.Size()
	defer c.commEnd(c.commBegin("reduce_scatter", p-1))
	c.enterColl("reduce_scatter")
	if len(counts) != p {
		c.w.fail(fmt.Errorf("mpi: rank %d: ReduceScatter counts length %d != comm size %d", c.rank, len(counts), p))
	}
	offs := make([]int, p+1)
	for i := 0; i < p; i++ {
		offs[i+1] = offs[i] + counts[i]
	}
	if len(send) != offs[p] {
		c.w.fail(fmt.Errorf("mpi: rank %d: ReduceScatter buffer length %d != sum(counts) %d",
			c.rank, len(send), offs[p]))
	}
	if p == 1 {
		out := make([]float64, counts[0])
		copy(out, send)
		return out
	}
	tag := c.nextCollTag()
	// Working copy accumulates partial sums chunk by chunk as they
	// travel around the ring.
	work := make([]float64, len(send))
	copy(work, send)
	right := (c.rank + 1) % p
	left := (c.rank - 1 + p) % p
	for s := 0; s < p-1; s++ {
		outIdx := (c.rank - s - 1 + 2*p) % p
		inIdx := (c.rank - s - 2 + 2*p) % p
		c.csend(right, tag, work[offs[outIdx]:offs[outIdx+1]], "reduce_scatter")
		got := c.crecv(left, tag, "reduce_scatter")
		if len(got) != counts[inIdx] {
			c.abortBlock("ReduceScatter", inIdx, len(got), counts[inIdx])
		}
		dst := work[offs[inIdx]:offs[inIdx+1]]
		for i, v := range got {
			dst[i] += v
		}
	}
	out := make([]float64, counts[c.rank])
	copy(out, work[offs[c.rank]:offs[c.rank+1]])
	return out
}

// ReduceScatterBlock is ReduceScatter with equal chunk sizes.
func (c *Comm) ReduceScatterBlock(send []float64, count int) []float64 {
	counts := make([]int, c.Size())
	for i := range counts {
		counts[i] = count
	}
	return c.ReduceScatter(send, counts)
}

// Reduce sums the send buffers of all ranks onto root using a binomial
// tree. The returned slice is the total on root and nil elsewhere.
func (c *Comm) Reduce(root int, send []float64) []float64 {
	c.checkPeer(root, "Reduce")
	p := c.Size()
	defer c.commEnd(c.commBegin("reduce", p-1))
	tag := c.nextCollTag()
	c.enterColl("reduce")
	acc := make([]float64, len(send))
	copy(acc, send)
	if p == 1 {
		return acc
	}
	rel := (c.rank - root + p) % p
	for mask := 1; mask < p; mask <<= 1 {
		if rel&mask == 0 {
			srcRel := rel | mask
			if srcRel < p {
				got := c.crecv(((srcRel + root) % p), tag, "reduce")
				if len(got) != len(acc) {
					c.w.fail(fmt.Errorf("mpi: rank %d: Reduce mismatched buffer lengths %d vs %d",
						c.rank, len(acc), len(got)))
				}
				for i, v := range got {
					acc[i] += v
				}
			}
		} else {
			dstRel := rel ^ mask
			c.csend(((dstRel + root) % p), tag, acc, "reduce")
			return nil
		}
	}
	return acc
}

// Allreduce sums the send buffers of all ranks and returns the total
// on every rank (binomial reduce to rank 0 followed by binomial
// broadcast, valid for any communicator size).
func (c *Comm) Allreduce(send []float64) []float64 {
	defer c.commEnd(c.commBegin("allreduce", c.Size()-1))
	c.enterColl("allreduce")
	total := c.Reduce(0, send)
	if c.rank != 0 {
		total = make([]float64, len(send))
	}
	return c.Bcast(0, total)
}

// Gatherv gathers variable-size contributions onto root (linear
// algorithm). Returns the concatenation in rank order on root, nil
// elsewhere. counts[i] is rank i's contribution length.
func (c *Comm) Gatherv(root int, send []float64, counts []int) []float64 {
	c.checkPeer(root, "Gatherv")
	p := c.Size()
	defer c.commEnd(c.commBegin("gatherv", p-1))
	tag := c.nextCollTag()
	c.enterColl("gatherv")
	if len(counts) != p {
		c.w.fail(fmt.Errorf("mpi: rank %d: Gatherv counts length %d != comm size %d", c.rank, len(counts), p))
	}
	if len(send) != counts[c.rank] {
		c.w.fail(fmt.Errorf("mpi: rank %d: Gatherv contribution length %d != counts[%d]=%d",
			c.rank, len(send), c.rank, counts[c.rank]))
	}
	if c.rank != root {
		c.csend(root, tag, send, "gatherv")
		return nil
	}
	offs := make([]int, p+1)
	for i := 0; i < p; i++ {
		offs[i+1] = offs[i] + counts[i]
	}
	out := make([]float64, offs[p])
	copy(out[offs[root]:offs[root+1]], send)
	for r := 0; r < p; r++ {
		if r == root {
			continue
		}
		got := c.crecv(r, tag, "gatherv")
		if len(got) != counts[r] {
			c.w.fail(fmt.Errorf("mpi: rank %d: Gatherv block from %d length %d != counts %d",
				c.rank, r, len(got), counts[r]))
		}
		copy(out[offs[r]:offs[r+1]], got)
	}
	return out
}

// Scatterv scatters root's buffer: rank i receives the i-th chunk of
// length counts[i] (linear algorithm). Non-root callers pass send=nil.
func (c *Comm) Scatterv(root int, send []float64, counts []int) []float64 {
	c.checkPeer(root, "Scatterv")
	p := c.Size()
	defer c.commEnd(c.commBegin("scatterv", p-1))
	tag := c.nextCollTag()
	c.enterColl("scatterv")
	if len(counts) != p {
		c.w.fail(fmt.Errorf("mpi: rank %d: Scatterv counts length %d != comm size %d", c.rank, len(counts), p))
	}
	if c.rank == root {
		offs := make([]int, p+1)
		for i := 0; i < p; i++ {
			offs[i+1] = offs[i] + counts[i]
		}
		if len(send) != offs[p] {
			c.w.fail(fmt.Errorf("mpi: rank %d: Scatterv buffer length %d != sum(counts) %d",
				c.rank, len(send), offs[p]))
		}
		for r := 0; r < p; r++ {
			if r == root {
				continue
			}
			c.csend(r, tag, send[offs[r]:offs[r+1]], "scatterv")
		}
		out := make([]float64, counts[root])
		copy(out, send[offs[root]:offs[root+1]])
		return out
	}
	got := c.crecv(root, tag, "scatterv")
	if len(got) != counts[c.rank] {
		c.w.fail(fmt.Errorf("mpi: rank %d: Scatterv chunk length %d != counts %d",
			c.rank, len(got), counts[c.rank]))
	}
	return got
}

// NeighborAlltoallv is the sparse personalized exchange used for
// matrix redistribution (the reference implementation's
// MPI_Neighbor_alltoallv): only non-empty buffers travel. Every rank
// must know how much it will receive from each source (recvLens[i] is
// the expected length from rank i; both sides of a redistribution can
// compute this deterministically from the layouts). Returns the
// received buffer per source (empty slices for zero-length entries).
func (c *Comm) NeighborAlltoallv(sendBufs [][]float64, recvLens []int) [][]float64 {
	p := c.Size()
	defer c.commEnd(c.commBegin("alltoallv", p-1))
	tag := c.nextCollTag()
	c.enterColl("alltoallv")
	if len(sendBufs) != p || len(recvLens) != p {
		c.w.fail(fmt.Errorf("mpi: rank %d: NeighborAlltoallv lengths %d/%d != comm size %d",
			c.rank, len(sendBufs), len(recvLens), p))
	}
	recvBufs := make([][]float64, p)
	self := make([]float64, len(sendBufs[c.rank]))
	copy(self, sendBufs[c.rank])
	recvBufs[c.rank] = self
	// Pairwise schedule over only the ranks actually exchanged with.
	for s := 1; s < p; s++ {
		dst := (c.rank + s) % p
		src := (c.rank - s + p) % p
		if len(sendBufs[dst]) > 0 {
			c.csend(dst, tag, sendBufs[dst], "alltoallv")
		}
		if recvLens[src] > 0 {
			got := c.crecv(src, tag, "alltoallv")
			if len(got) != recvLens[src] {
				c.w.fail(fmt.Errorf("mpi: rank %d: NeighborAlltoallv from %d got %d elements, expected %d",
					c.rank, src, len(got), recvLens[src]))
			}
			recvBufs[src] = got
		} else {
			recvBufs[src] = nil
		}
	}
	return recvBufs
}

// Alltoallv performs a personalized all-to-all exchange: sendBufs[i]
// goes to rank i, and the returned slice holds at index i the buffer
// received from rank i. Empty (nil) buffers are allowed and cost no
// message. Pairwise-exchange schedule.
func (c *Comm) Alltoallv(sendBufs [][]float64) [][]float64 {
	p := c.Size()
	defer c.commEnd(c.commBegin("alltoallv", p-1))
	tag := c.nextCollTag()
	c.enterColl("alltoallv")
	if len(sendBufs) != p {
		c.w.fail(fmt.Errorf("mpi: rank %d: Alltoallv sendBufs length %d != comm size %d", c.rank, len(sendBufs), p))
	}
	recvBufs := make([][]float64, p)
	// Self block: local copy.
	self := make([]float64, len(sendBufs[c.rank]))
	copy(self, sendBufs[c.rank])
	recvBufs[c.rank] = self
	// Every buffer is sent, even empty ones, so the pairwise schedule
	// stays aligned without a prior size exchange; zero-length
	// messages carry no payload bytes.
	for s := 1; s < p; s++ {
		dst := (c.rank + s) % p
		src := (c.rank - s + p) % p
		c.csend(dst, tag, sendBufs[dst], "alltoallv")
		recvBufs[src] = c.crecv(src, tag, "alltoallv")
	}
	return recvBufs
}
