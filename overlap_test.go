package ca3dmm

import (
	"fmt"
	"testing"
)

// The determinism contract of the overlap machinery: every algorithm,
// on every problem shape, must produce a C that is bit-identical with
// overlap enabled (the default) and disabled (NoOverlap), at every
// prefetch depth. The overlapped schedule changes *when* communication
// happens, never the accumulation order, so there is no tolerance here
// — float64 equality, element for element. Run with -race to also
// prove the pipelined Wait/compute interleaving is data-race free.

// overlapShapes is the shape grid of the harness: square, tall-skinny
// (large-m and large-k), and dimensions that do not divide the process
// grid evenly (padding and uneven block paths).
var overlapShapes = []struct {
	name    string
	m, n, k int
}{
	{"square", 36, 36, 36},
	{"tall-skinny", 96, 12, 12},
	{"k-dominant", 12, 12, 120},
	{"non-divisible", 37, 29, 31},
}

func TestOverlapBitIdenticalAllAlgorithms(t *testing.T) {
	for _, alg := range Algorithms() {
		p := 6
		if alg == CARMA {
			p = 8 // power-of-two restriction
		}
		for _, sh := range overlapShapes {
			t.Run(fmt.Sprintf("%s/%s", alg, sh.name), func(t *testing.T) {
				a := Random(sh.m, sh.k, 101)
				b := Random(sh.k, sh.n, 202)
				run := func(cfg Config) *Matrix {
					cfg.Algorithm = alg
					got, _, _, err := Multiply(a, b, p, cfg)
					if err != nil {
						t.Fatalf("%+v: %v", cfg, err)
					}
					return got
				}
				blocking := run(Config{NoOverlap: true})
				overlapped := run(Config{})
				if !bitIdentical(blocking, overlapped) {
					t.Fatal("overlap on/off results differ bitwise")
				}
				deep := run(Config{OverlapDepth: 3})
				if !bitIdentical(blocking, deep) {
					t.Fatal("OverlapDepth=3 differs bitwise from blocking")
				}
				want := GemmRef(a, b, false, false)
				if d := MaxAbsDiff(overlapped, want); d > 1e-9 {
					t.Fatalf("overlapped result wrong by %v", d)
				}
			})
		}
	}
}

func TestOverlapBitIdenticalWithReplication(t *testing.T) {
	// Force a grid with c = Crep > 1 so the Iallgatherv-overlapped
	// replication path of the executor runs, and with pk > 1 so the
	// reduce-scatter follows an overlapped Cannon stage.
	a := Random(48, 8, 7)
	b := Random(8, 8, 9)
	run := func(cfg Config) *Matrix {
		got, _, _, err := Multiply(a, b, 12, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	blocking := run(Config{NoOverlap: true})
	overlapped := run(Config{})
	if !bitIdentical(blocking, overlapped) {
		t.Fatal("replicated overlap path differs bitwise from blocking")
	}
	if d := MaxAbsDiff(overlapped, GemmRef(a, b, false, false)); d > 1e-9 {
		t.Fatalf("wrong by %v", d)
	}

	// Forced 2x4x2 grid on 16 ranks: s=2 Cannon groups, c=2 replicas,
	// pk=2 k-task groups — every overlapped stage (Iallgatherv
	// replication, Isendrecv shifts, reduce-scatter after both) in one
	// execution.
	a2 := Random(32, 40, 17)
	b2 := Random(40, 36, 19)
	runG := func(cfg Config) *Matrix {
		cfg.Grid = Grid{Pm: 2, Pn: 4, Pk: 2}
		got, _, _, err := Multiply(a2, b2, 16, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	gBlock := runG(Config{NoOverlap: true})
	gOver := runG(Config{})
	if !bitIdentical(gBlock, gOver) {
		t.Fatal("2x4x2 grid: overlap on/off differ bitwise")
	}
	if d := MaxAbsDiff(gOver, GemmRef(a2, b2, false, false)); d > 1e-9 {
		t.Fatalf("2x4x2 grid: wrong by %v", d)
	}
}

func TestOverlapBitIdenticalTransposedRepeated(t *testing.T) {
	// Transposed inputs through the overlapped default path, repeated to
	// give the scheduler room to vary arrival order between runs.
	a := Random(24, 40, 31) // stored k x m
	b := Random(18, 24, 32) // stored n x k
	var base *Matrix
	for i := 0; i < 3; i++ {
		got, _, _, err := Multiply(a, b, 6, Config{TransA: true, TransB: true})
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = got
		} else if !bitIdentical(base, got) {
			t.Fatalf("run %d differs bitwise from run 0", i)
		}
	}
	if d := MaxAbsDiff(base, GemmRef(a, b, true, true)); d > 1e-9 {
		t.Fatalf("wrong by %v", d)
	}
}
