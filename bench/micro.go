package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/dist"
	"repro/internal/mat"
	"repro/internal/mpi"
)

// Micro-benchmarks of the three library layers under the Engine, timed
// from outside through their public functions. They do not depend on
// the workload; every traced run repeats them so that a layer's number
// and the end-to-end numbers come from the same machine state.

// cost is what one call of a measured function costs.
type cost struct {
	t             time.Duration // median over batches
	allocs, bytes float64       // heap objects and bytes allocated, mean
}

func (c cost) gflops(flops float64) float64 { return flops / float64(c.t) }
func (c cost) gbps(bytes float64) float64   { return bytes / float64(c.t) }

// timeReps calls f in batches until budget is spent (at least three
// batches) and returns the median time per call. Calls shorter than
// 200 µs are batched so that the clock is read rarely.
func timeReps(budget time.Duration, f func()) cost {
	f()
	t0 := time.Now()
	f()
	one := time.Since(t0)
	inner := 1
	if one < 200*time.Microsecond {
		inner = int(200*time.Microsecond/(one+1)) + 1
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var samples []float64
	calls := 0
	start := time.Now()
	for len(samples) < 3 || time.Since(start) < budget {
		t0 := time.Now()
		for i := 0; i < inner; i++ {
			f()
		}
		samples = append(samples, float64(time.Since(t0))/float64(inner))
		calls += inner
	}
	runtime.ReadMemStats(&m1)
	return cost{
		t:      time.Duration(median(samples)),
		allocs: float64(m1.Mallocs-m0.Mallocs) / float64(calls),
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(calls),
	}
}

// timeRanks runs a fresh p-rank world in which every rank calls the
// body that setup returns, in five batches separated by barriers, and
// returns rank 0's median time per call. Rank 0 sizes the batches from
// a short pilot so that they fill budget.
func timeRanks(p int, budget time.Duration, setup func(c *mpi.Comm) func()) (cost, error) {
	const batches, pilot = 5, 8
	var out cost
	_, err := mpi.Run(p, func(c *mpi.Comm) {
		body := setup(c)
		body()
		c.Barrier()
		t0 := time.Now()
		for i := 0; i < pilot; i++ {
			body()
		}
		per := time.Since(t0)/pilot + 1
		n := []float64{float64(budget/batches/per + 1)}
		iters := int(c.Bcast(0, n)[0])

		var m0, m1 runtime.MemStats
		if c.Rank() == 0 {
			runtime.ReadMemStats(&m0)
		}
		var samples []float64
		for b := 0; b < batches; b++ {
			c.Barrier()
			t0 := time.Now()
			for i := 0; i < iters; i++ {
				body()
			}
			samples = append(samples, float64(time.Since(t0))/float64(iters))
		}
		c.Barrier()
		if c.Rank() == 0 {
			runtime.ReadMemStats(&m1)
			calls := float64(batches * iters)
			out = cost{
				t:      time.Duration(median(samples)),
				allocs: float64(m1.Mallocs-m0.Mallocs) / calls,
				bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / calls,
			}
		}
	})
	return out, err
}

// micros measures every workload-independent per-layer metric, giving
// each measurement the same share of budget, and records one span per
// measurement.
func micros(budget time.Duration, nproc int, rec *spanRecorder, set func(name string, v float64)) error {
	type item struct {
		name string
		run  func(d time.Duration) error
	}
	var items []item
	add := func(name string, run func(d time.Duration) error) { items = append(items, item{name, run}) }
	// local measures one metric on the driver goroutine; ranksUs one
	// metric in µs per call on rank 0 of a p-rank world.
	local := func(name string, run func(d time.Duration) float64) {
		add(name, func(d time.Duration) error { set(name, run(d)); return nil })
	}
	ranksUs := func(name string, p int, setup func(c *mpi.Comm) func()) {
		add(name, func(d time.Duration) error {
			c, err := timeRanks(p, d, setup)
			set(name, us(c.t))
			return err
		})
	}

	// mat: the local GEMM engine and the pack/unpack primitives.
	gemm := func(d time.Duration, m, n, k int, f func(a, b, c *mat.Dense)) cost {
		a, b, c := mat.Random(m, k, 1), mat.Random(k, n, 2), mat.New(m, n)
		return timeReps(d, func() { f(a, b, c) })
	}
	serial := func(a, b, c *mat.Dense) { mat.GemmSerial(mat.NoTrans, mat.NoTrans, 1, a, b, 0, c) }
	cube := func(n int) float64 { return 2 * float64(n) * float64(n) * float64(n) }
	local("mat.gemm_serial_gflops_256", func(d time.Duration) float64 {
		return gemm(d, 256, 256, 256, serial).gflops(cube(256))
	})
	local("mat.gemm_serial_gflops_512", func(d time.Duration) float64 {
		c := gemm(d, 512, 512, 512, serial)
		set("mat.gemm_allocs_per_call", c.allocs)
		return c.gflops(cube(512))
	})
	local("mat.gemm_serial_gflops_1024", func(d time.Duration) float64 {
		return gemm(d, 1024, 1024, 1024, serial).gflops(cube(1024))
	})
	local("mat.gemm_parallel_gflops_1024", func(d time.Duration) float64 {
		defer mat.SetGemmThreads(mat.SetGemmThreads(nproc))
		return gemm(d, 1024, 1024, 1024, func(a, b, c *mat.Dense) {
			mat.Gemm(mat.NoTrans, mat.NoTrans, 1, a, b, 0, c)
		}).gflops(cube(1024))
	})
	local("mat.gemm_tile_gflops_32", func(d time.Duration) float64 {
		return gemm(d, 32, 32, 32, serial).gflops(cube(32))
	})
	local("mat.gemm_panel_gflops", func(d time.Duration) float64 {
		// The local block of redist_bound: 16384/15 rows of a 64x64 product.
		return gemm(d, 1093, 64, 64, serial).gflops(2 * 1093 * 64 * 64)
	})
	local("mat.pack_gbps", func(d time.Duration) float64 {
		m := mat.Random(1024, 1024, 3)
		buf := make([]float64, 1024*1024)
		return timeReps(d, func() { m.PackInto(buf); m.Unpack(buf) }).gbps(2 * 8 * 1024 * 1024)
	})

	// mpi: point-to-point and collectives, 4096 float64 per rank unless
	// the name says otherwise.
	const elems = 4096
	pingpong := func(n int) func(c *mpi.Comm) func() {
		return func(c *mpi.Comm) func() {
			buf := make([]float64, n)
			peer := 1 - c.Rank()
			if c.Rank() == 0 {
				return func() { c.Send(peer, 1, buf); c.Recv(peer, 1) }
			}
			return func() { c.Recv(peer, 1); c.Send(peer, 1, buf) }
		}
	}
	add("mpi.pingpong_small_ns", func(d time.Duration) error {
		c, err := timeRanks(2, d, pingpong(8))
		// One body is a round trip: two one-way messages.
		set("mpi.pingpong_small_ns", float64(c.t)/2)
		set("mpi.allocs_per_msg", c.allocs/2)
		set("mpi.alloc_bytes_per_msg", c.bytes/2)
		return err
	})
	add("mpi.pingpong_large_gbps", func(d time.Duration) error {
		c, err := timeRanks(2, d, pingpong(8192))
		set("mpi.pingpong_large_gbps", c.gbps(2*8*8192))
		return err
	})
	for _, p := range []int{4, 16} {
		p := p
		sfx := fmt.Sprintf("_p%d_us", p)
		ranksUs("mpi.allgather"+sfx, p, func(c *mpi.Comm) func() {
			buf := make([]float64, elems)
			return func() { c.Allgather(buf) }
		})
		ranksUs("mpi.reduce_scatter"+sfx, p, func(c *mpi.Comm) func() {
			buf := make([]float64, elems)
			return func() { c.ReduceScatterBlock(buf, elems/p) }
		})
	}
	ranksUs("mpi.bcast_p16_us", 16, func(c *mpi.Comm) func() {
		buf := make([]float64, elems)
		return func() { c.Bcast(0, buf) }
	})
	ranksUs("mpi.allreduce_p16_us", 16, func(c *mpi.Comm) func() {
		buf := make([]float64, elems)
		return func() { c.Allreduce(buf) }
	})
	ranksUs("mpi.sendrecv_ring_p16_us", 16, func(c *mpi.Comm) func() {
		buf := make([]float64, elems)
		next, prev := (c.Rank()+1)%c.Size(), (c.Rank()+c.Size()-1)%c.Size()
		return func() { c.Sendrecv(next, prev, 2, buf) }
	})
	ranksUs("mpi.barrier_p16_us", 16, func(c *mpi.Comm) func() {
		return func() { c.Barrier() }
	})
	ranksUs("mpi.split_p16_us", 16, func(c *mpi.Comm) func() {
		return func() { c.Split(c.Rank()%4, c.Rank()) }
	})
	add("mpi.run_spawn_p16_us", func(d time.Duration) error {
		var err error
		c := timeReps(d, func() {
			if _, e := mpi.Run(16, func(*mpi.Comm) {}); e != nil {
				err = e
			}
		})
		set("mpi.run_spawn_p16_us", us(c.t))
		return err
	})

	// dist: a 1024x1024 matrix on 16 ranks, 1D-column to 4x4 blocks.
	const n, p = 1024, 16
	const matBytes = 8 * n * n
	src := dist.Block1DCol{R: n, C: n, P: p}
	dst := dist.Block2D{R: n, C: n, Pr: 4, Pc: 4, P: p}
	local("dist.route_build_us", func(d time.Duration) float64 {
		return us(timeReps(d, func() {
			for r := 0; r < p; r++ {
				dist.BuildRoute(src, dst, false, r)
			}
		}).t) / p
	})
	apply := func(from, to dist.Layout, trans bool) func(c *mpi.Comm) func() {
		return func(c *mpi.Comm) func() {
			rt := dist.BuildRoute(from, to, trans, c.Rank())
			rows, cols := from.LocalShape(c.Rank())
			blk := mat.Random(rows, cols, uint64(c.Rank()))
			ar := mat.NewArena()
			return func() { ar.Put(rt.Apply(c, blk, ar)) }
		}
	}
	applyGbps := func(name string, trans bool) {
		add(name, func(d time.Duration) error {
			c, err := timeRanks(p, d, apply(src, dst, trans))
			set(name, c.gbps(matBytes))
			return err
		})
	}
	applyGbps("dist.route_apply_gbps", false)
	applyGbps("dist.route_apply_trans_gbps", true)
	ranksUs("dist.route_apply_identity_us", p, apply(dst, dst, false))
	local("dist.scatter_gbps", func(d time.Duration) float64 {
		g := mat.Random(n, n, 4)
		return timeReps(d, func() { dist.Scatter(g, dst) }).gbps(matBytes)
	})
	local("dist.assemble_gbps", func(d time.Duration) float64 {
		blocks := dist.Scatter(mat.Random(n, n, 5), dst)
		return timeReps(d, func() { dist.Assemble(blocks, dst) }).gbps(matBytes)
	})

	each := budget / time.Duration(len(items))
	for _, it := range items {
		id := rec.begin("micro:"+it.name, -1, -1)
		err := it.run(each)
		rec.finish(id)
		if err != nil {
			return err
		}
	}
	return nil
}
