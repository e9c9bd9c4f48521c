package main

// The metric tables are the single source of the names, units,
// directions and bounds; BENCHMARK.json repeats them for the driver and
// bench_test.go checks that the two agree.

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the library sees, measured with tracing
// off. On baselines_round "call" means one round of seven calls.
var endToEnd = []metricDef{
	{"call_p50_ms", "ms", "lower", 0.25},
	{"calls_per_s", "1/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"heap_growth_bytes_per_call", "B", "lower", 0.02},
	{"alloc_bytes_per_call", "B", "lower", 0.02},
}

// perLayer is printed by the traced run. No bounds: these explain a
// move of an end-to-end metric, they do not gate a change.
var perLayer = []metricDef{
	// mat: micro-benchmarks, then counts per call of this workload.
	{Name: "mat.gemm_serial_gflops_256", Unit: "GFLOP/s", Better: "higher"},
	{Name: "mat.gemm_serial_gflops_512", Unit: "GFLOP/s", Better: "higher"},
	{Name: "mat.gemm_serial_gflops_1024", Unit: "GFLOP/s", Better: "higher"},
	{Name: "mat.gemm_parallel_gflops_1024", Unit: "GFLOP/s", Better: "higher"},
	{Name: "mat.gemm_tile_gflops_32", Unit: "GFLOP/s", Better: "higher"},
	{Name: "mat.gemm_panel_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "mat.gemm_allocs_per_call", Unit: "count", Better: "lower"},
	{Name: "mat.pack_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "mat.flops_per_call", Unit: "count", Better: "lower"},
	{Name: "mat.flop_useful_ratio", Unit: "ratio", Better: "higher"},
	// mpi: micro-benchmarks, then exact counts per call of this workload.
	{Name: "mpi.pingpong_small_ns", Unit: "ns", Better: "lower"},
	{Name: "mpi.pingpong_large_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "mpi.allocs_per_msg", Unit: "count", Better: "lower"},
	{Name: "mpi.alloc_bytes_per_msg", Unit: "B", Better: "lower"},
	{Name: "mpi.allgather_p4_us", Unit: "us", Better: "lower"},
	{Name: "mpi.allgather_p16_us", Unit: "us", Better: "lower"},
	{Name: "mpi.reduce_scatter_p4_us", Unit: "us", Better: "lower"},
	{Name: "mpi.reduce_scatter_p16_us", Unit: "us", Better: "lower"},
	{Name: "mpi.bcast_p16_us", Unit: "us", Better: "lower"},
	{Name: "mpi.allreduce_p16_us", Unit: "us", Better: "lower"},
	{Name: "mpi.sendrecv_ring_p16_us", Unit: "us", Better: "lower"},
	{Name: "mpi.barrier_p16_us", Unit: "us", Better: "lower"},
	{Name: "mpi.split_p16_us", Unit: "us", Better: "lower"},
	{Name: "mpi.run_spawn_p16_us", Unit: "us", Better: "lower"},
	{Name: "mpi.msgs_per_call", Unit: "count", Better: "lower"},
	{Name: "mpi.bytes_per_call", Unit: "B", Better: "lower"},
	{Name: "mpi.max_rank_bytes_per_call", Unit: "B", Better: "lower"},
	{Name: "mpi.max_rank_msgs_per_call", Unit: "count", Better: "lower"},
	// dist: micro-benchmarks, then this workload's layout conversion.
	{Name: "dist.route_build_us", Unit: "us", Better: "lower"},
	{Name: "dist.route_apply_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "dist.route_apply_trans_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "dist.route_apply_identity_us", Unit: "us", Better: "lower"},
	{Name: "dist.scatter_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "dist.assemble_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "dist.route_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "dist.transfer_bytes_per_call", Unit: "B", Better: "lower"},
	// schedule: the StageTimes every call returns, median over timed
	// rounds of the maximum over ranks. Stages overlap; they need not sum.
	{Name: "stage.redistribute_ms", Unit: "ms", Better: "lower"},
	{Name: "stage.replicate_ms", Unit: "ms", Better: "lower"},
	{Name: "stage.compute_ms", Unit: "ms", Better: "lower"},
	{Name: "stage.reduce_ms", Unit: "ms", Better: "lower"},
	{Name: "stage.total_ms", Unit: "ms", Better: "lower"},
	{Name: "algo.ca3dmm-s.call_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "algo.cosma.call_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "algo.carma.call_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "algo.c25d.call_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "algo.summa.call_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "algo.1d.call_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "algo.3d.call_p50_ms", Unit: "ms", Better: "lower"},
	// engine: the root package.
	{Name: "engine.call_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.call_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.call_tail_pct", Unit: "%", Better: "higher"},
	{Name: "engine.calls", Unit: "count", Better: "higher"},
	{Name: "engine.dispatch_us", Unit: "us", Better: "lower"},
	{Name: "engine.plan_us", Unit: "us", Better: "lower"},
	{Name: "engine.new_engine_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.scatter_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.first_call_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.close_us", Unit: "us", Better: "lower"},
	{Name: "engine.arena_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.oneshot_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.cold_over_warm", Unit: "ratio", Better: "lower"},
	{Name: "engine.gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "engine.runtime_efficiency", Unit: "ratio", Better: "higher"},
	// obs, abft, pipeline: the same loop with one Config field changed.
	{Name: "obs.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "obs.events_per_call", Unit: "count", Better: "lower"},
	{Name: "obs.build_report_ms", Unit: "ms", Better: "lower"},
	{Name: "abft.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "pipeline.overlap_speedup", Unit: "ratio", Better: "higher"},
	// host: the machine, not the program.
	{Name: "host.calib_ms", Unit: "ms", Better: "lower"},
	{Name: "host.blocks_discarded", Unit: "count", Better: "lower"},
	{Name: "host.blocks_truncated", Unit: "count", Better: "lower"},
	{Name: "host.gomaxprocs", Unit: "count", Better: "higher"},
	{Name: "host.nproc", Unit: "count", Better: "higher"},
}
