package cannon

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/mat"
	"repro/internal/mpi"
)

// runCannon multiplies A(MxK)·B(KxN) on an s x s grid with the given
// config and returns the assembled result.
func runCannon(t *testing.T, a, b *mat.Dense, cfg Config) *mat.Dense {
	t.Helper()
	s := cfg.S
	am, ak, bn := cfg.BlockShape()
	out := mat.New(cfg.M, cfg.N)
	var mu sync.Mutex
	_, err := mpi.Run(s*s, func(c *mpi.Comm) {
		row, col := c.Rank()/s, c.Rank()%s
		ar0, ac0, arows, acols := ABlockOwned(cfg, row, col)
		br0, bc0, brows, bcols := BBlockOwned(cfg, row, col)
		aLoc := PadBlock(a.View(ar0, ac0, arows, acols), am, ak)
		bLoc := PadBlock(b.View(br0, bc0, brows, bcols), ak, bn)
		cLoc, _ := Multiply(c, nil, aLoc, bLoc, cfg, nil)
		cr0, cc0, crows, ccols := BlockOwned(cfg, row, col)
		mu.Lock()
		if crows > 0 && ccols > 0 {
			out.View(cr0, cc0, crows, ccols).CopyFrom(cLoc)
		}
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func refMul(a, b *mat.Dense) *mat.Dense {
	c := mat.New(a.Rows, b.Cols)
	mat.GemmRef(mat.NoTrans, mat.NoTrans, 1, a, b, 0, c)
	return c
}

func TestCannonSquareDivisible(t *testing.T) {
	a := mat.Random(12, 12, 1)
	b := mat.Random(12, 12, 2)
	got := runCannon(t, a, b, Config{S: 3, M: 12, K: 12, N: 12})
	if d := mat.MaxAbsDiff(got, refMul(a, b)); d > 1e-10 {
		t.Fatalf("diff %v", d)
	}
}

func TestCannonNonDivisible(t *testing.T) {
	// Dimensions that do not divide the grid side: padding path.
	a := mat.Random(13, 17, 3)
	b := mat.Random(17, 11, 4)
	got := runCannon(t, a, b, Config{S: 3, M: 13, K: 17, N: 11})
	if d := mat.MaxAbsDiff(got, refMul(a, b)); d > 1e-10 {
		t.Fatalf("diff %v", d)
	}
}

func TestCannonS1(t *testing.T) {
	a := mat.Random(5, 7, 5)
	b := mat.Random(7, 6, 6)
	got := runCannon(t, a, b, Config{S: 1, M: 5, K: 7, N: 6})
	if d := mat.MaxAbsDiff(got, refMul(a, b)); d > 1e-10 {
		t.Fatalf("diff %v", d)
	}
}

func TestCannonRectangularPanels(t *testing.T) {
	// Wide and tall panels on larger grids.
	cases := []struct{ s, m, k, n int }{
		{2, 30, 6, 50},
		{4, 9, 40, 9},
		{4, 64, 64, 64},
		{5, 23, 29, 31},
	}
	for _, tc := range cases {
		a := mat.Random(tc.m, tc.k, 7)
		b := mat.Random(tc.k, tc.n, 8)
		got := runCannon(t, a, b, Config{S: tc.s, M: tc.m, K: tc.k, N: tc.n})
		if d := mat.MaxAbsDiff(got, refMul(a, b)); d > 1e-9 {
			t.Fatalf("s=%d %dx%dx%d: diff %v", tc.s, tc.m, tc.k, tc.n, d)
		}
	}
}

func TestCannonDualBuffer(t *testing.T) {
	a := mat.Random(14, 15, 9)
	b := mat.Random(15, 13, 10)
	base := runCannon(t, a, b, Config{S: 3, M: 14, K: 15, N: 13})
	dual := runCannon(t, a, b, Config{S: 3, M: 14, K: 15, N: 13, DualBuffer: true})
	if d := mat.MaxAbsDiff(base, dual); d != 0 {
		t.Fatalf("dual buffer changed result by %v", d)
	}
	if d := mat.MaxAbsDiff(dual, refMul(a, b)); d > 1e-10 {
		t.Fatalf("diff %v", d)
	}
}

func TestCannonMultiShift(t *testing.T) {
	// Thin k-blocks trigger aggregation (ak = ceil(8/4) = 2 < 64).
	a := mat.Random(16, 8, 11)
	b := mat.Random(8, 16, 12)
	cfg := Config{S: 4, M: 16, K: 8, N: 16, MultiShift: 3}
	got := runCannon(t, a, b, cfg)
	if d := mat.MaxAbsDiff(got, refMul(a, b)); d > 1e-10 {
		t.Fatalf("diff %v", d)
	}
	// Aggregation must be a no-op when k-blocks are wide enough.
	cfg2 := Config{S: 2, M: 16, K: 300, N: 16, MultiShift: 2, MinKBlock: 4}
	a2 := mat.Random(16, 300, 13)
	b2 := mat.Random(300, 16, 14)
	got2 := runCannon(t, a2, b2, cfg2)
	if d := mat.MaxAbsDiff(got2, refMul(a2, b2)); d > 1e-9 {
		t.Fatalf("diff %v", d)
	}
}

func TestCannonMultiShiftBatchBoundary(t *testing.T) {
	// s=5 with MultiShift=2: batches 2,2,1 — exercises the tail batch.
	a := mat.Random(10, 10, 15)
	b := mat.Random(10, 10, 16)
	got := runCannon(t, a, b, Config{S: 5, M: 10, K: 10, N: 10, MultiShift: 2})
	if d := mat.MaxAbsDiff(got, refMul(a, b)); d > 1e-10 {
		t.Fatalf("diff %v", d)
	}
}

func TestCannonTimingsPopulated(t *testing.T) {
	a := mat.Random(60, 60, 17)
	b := mat.Random(60, 60, 18)
	cfg := Config{S: 2, M: 60, K: 60, N: 60}
	am, ak, bn := cfg.BlockShape()
	_, err := mpi.Run(4, func(c *mpi.Comm) {
		row, col := c.Rank()/2, c.Rank()%2
		ar0, ac0, arows, acols := ABlockOwned(cfg, row, col)
		br0, bc0, brows, bcols := BBlockOwned(cfg, row, col)
		aLoc := PadBlock(a.View(ar0, ac0, arows, acols), am, ak)
		bLoc := PadBlock(b.View(br0, bc0, brows, bcols), ak, bn)
		_, tm := Multiply(c, nil, aLoc, bLoc, cfg, nil)
		if tm.Compute <= 0 {
			t.Errorf("rank %d: no compute time recorded", c.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCannonWrongCommSizePanics(t *testing.T) {
	_, err := mpi.Run(3, func(c *mpi.Comm) {
		Multiply(c, nil, mat.New(1, 1), mat.New(1, 1), Config{S: 2, M: 2, K: 2, N: 2}, nil)
	})
	if err == nil {
		t.Fatal("expected size mismatch error")
	}
}

func TestCannonWrongBlockShapePanics(t *testing.T) {
	_, err := mpi.Run(1, func(c *mpi.Comm) {
		Multiply(c, nil, mat.New(3, 3), mat.New(3, 3), Config{S: 1, M: 2, K: 3, N: 3}, nil)
	})
	if err == nil {
		t.Fatal("expected block shape error")
	}
}

func TestCannonStatsNeighborOnly(t *testing.T) {
	// Cannon must use only point-to-point traffic (fixed neighbor
	// pattern), never collectives.
	a := mat.Random(12, 12, 19)
	b := mat.Random(12, 12, 20)
	cfg := Config{S: 2, M: 12, K: 12, N: 12}
	am, ak, bn := cfg.BlockShape()
	rep, err := mpi.Run(4, func(c *mpi.Comm) {
		row, col := c.Rank()/2, c.Rank()%2
		ar0, ac0, arows, acols := ABlockOwned(cfg, row, col)
		br0, bc0, brows, bcols := BBlockOwned(cfg, row, col)
		aLoc := PadBlock(a.View(ar0, ac0, arows, acols), am, ak)
		bLoc := PadBlock(b.View(br0, bc0, brows, bcols), ak, bn)
		Multiply(c, nil, aLoc, bLoc, cfg, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, st := range rep.Ranks {
		for op := range st.PerOp {
			if op != "p2p" {
				t.Fatalf("rank %d used collective %q", r, op)
			}
		}
	}
}

// Property: Cannon equals the reference for random shapes and grid
// sides, all buffering modes.
func TestCannonProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := mat.NewRNG(seed)
		s := 1 + rng.Intn(4)
		m := 1 + rng.Intn(20)
		k := 1 + rng.Intn(20)
		n := 1 + rng.Intn(20)
		a := mat.Random(m, k, seed+1)
		b := mat.Random(k, n, seed+2)
		cfg := Config{S: s, M: m, K: k, N: n,
			DualBuffer: rng.Intn(2) == 1, MultiShift: rng.Intn(4)}
		am, ak, bn := cfg.BlockShape()
		out := mat.New(m, n)
		var mu sync.Mutex
		_, err := mpi.Run(s*s, func(c *mpi.Comm) {
			row, col := c.Rank()/s, c.Rank()%s
			ar0, ac0, arows, acols := ABlockOwned(cfg, row, col)
			br0, bc0, brows, bcols := BBlockOwned(cfg, row, col)
			aLoc := PadBlock(a.View(ar0, ac0, arows, acols), am, ak)
			bLoc := PadBlock(b.View(br0, bc0, brows, bcols), ak, bn)
			cLoc, _ := Multiply(c, nil, aLoc, bLoc, cfg, nil)
			cr0, cc0, crows, ccols := BlockOwned(cfg, row, col)
			mu.Lock()
			if crows > 0 && ccols > 0 {
				out.View(cr0, cc0, crows, ccols).CopyFrom(cLoc)
			}
			mu.Unlock()
		})
		if err != nil {
			return false
		}
		return mat.MaxAbsDiff(out, refMul(a, b)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
