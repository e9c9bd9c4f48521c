package summa

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/mat"
	"repro/internal/mpi"
)

// multiply splits the process row and column communicators (the
// executor does this once per state) and runs the kernel unguarded.
func multiply(c *mpi.Comm, a, b *mat.Dense, cfg Config) (*mat.Dense, Timings) {
	row, col := c.Rank()/cfg.Pc, c.Rank()%cfg.Pc
	return Multiply(c, c.Split(row, col), c.Split(col, row), nil, a, b, cfg, nil)
}

func runSUMMA(t testing.TB, a, b *mat.Dense, cfg Config) *mat.Dense {
	t.Helper()
	out := mat.New(cfg.M, cfg.N)
	var mu sync.Mutex
	_, err := mpi.Run(cfg.Pr*cfg.Pc, func(c *mpi.Comm) {
		row, col := c.Rank()/cfg.Pc, c.Rank()%cfg.Pc
		ar0, ac0, arows, acols := cfg.ABlock(row, col)
		br0, bc0, brows, bcols := cfg.BBlock(row, col)
		cLoc, _ := multiply(c, a.View(ar0, ac0, arows, acols).Clone(), b.View(br0, bc0, brows, bcols).Clone(), cfg)
		cr0, cc0, crows, ccols := cfg.CBlock(row, col)
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

func TestSUMMASquareGrid(t *testing.T) {
	a := mat.Random(24, 24, 1)
	b := mat.Random(24, 24, 2)
	got := runSUMMA(t, a, b, Config{Pr: 2, Pc: 2, M: 24, K: 24, N: 24})
	if d := mat.MaxAbsDiff(got, refMul(a, b)); d > 1e-10 {
		t.Fatalf("diff %v", d)
	}
}

func TestSUMMARectGridNonDivisible(t *testing.T) {
	a := mat.Random(17, 23, 3)
	b := mat.Random(23, 15, 4)
	got := runSUMMA(t, a, b, Config{Pr: 2, Pc: 3, M: 17, K: 23, N: 15})
	if d := mat.MaxAbsDiff(got, refMul(a, b)); d > 1e-10 {
		t.Fatalf("diff %v", d)
	}
}

func TestSUMMATallGrid(t *testing.T) {
	a := mat.Random(40, 8, 5)
	b := mat.Random(8, 10, 6)
	got := runSUMMA(t, a, b, Config{Pr: 4, Pc: 1, M: 40, K: 8, N: 10})
	if d := mat.MaxAbsDiff(got, refMul(a, b)); d > 1e-10 {
		t.Fatalf("diff %v", d)
	}
}

func TestSUMMAPanelWidths(t *testing.T) {
	a := mat.Random(20, 30, 7)
	b := mat.Random(30, 20, 8)
	want := refMul(a, b)
	for _, panel := range []int{1, 3, 7, 16, 100} {
		got := runSUMMA(t, a, b, Config{Pr: 2, Pc: 2, M: 20, K: 30, N: 20, Panel: panel})
		if d := mat.MaxAbsDiff(got, want); d > 1e-10 {
			t.Fatalf("panel %d: diff %v", panel, d)
		}
	}
}

func TestSUMMASingleProcess(t *testing.T) {
	a := mat.Random(5, 6, 9)
	b := mat.Random(6, 7, 10)
	got := runSUMMA(t, a, b, Config{Pr: 1, Pc: 1, M: 5, K: 6, N: 7})
	if d := mat.MaxAbsDiff(got, refMul(a, b)); d > 1e-10 {
		t.Fatalf("diff %v", d)
	}
}

func TestSUMMAKSmallerThanGrid(t *testing.T) {
	// K=2 on a 3x3 grid: some owner blocks are empty.
	a := mat.Random(9, 2, 11)
	b := mat.Random(2, 9, 12)
	got := runSUMMA(t, a, b, Config{Pr: 3, Pc: 3, M: 9, K: 2, N: 9})
	if d := mat.MaxAbsDiff(got, refMul(a, b)); d > 1e-10 {
		t.Fatalf("diff %v", d)
	}
}

func TestSUMMAWrongCommSize(t *testing.T) {
	_, err := mpi.Run(3, func(c *mpi.Comm) {
		multiply(c, mat.New(1, 1), mat.New(1, 1), Config{Pr: 2, Pc: 2, M: 2, K: 2, N: 2})
	})
	if err == nil {
		t.Fatal("expected error")
	}
}

func TestSUMMAWrongBlockShape(t *testing.T) {
	_, err := mpi.Run(1, func(c *mpi.Comm) {
		multiply(c, mat.New(3, 3), mat.New(4, 4), Config{Pr: 1, Pc: 1, M: 4, K: 4, N: 4})
	})
	if err == nil {
		t.Fatal("expected error")
	}
}

func TestBlockOwner(t *testing.T) {
	for _, tc := range []struct{ n, p int }{{10, 3}, {7, 7}, {20, 6}, {5, 1}} {
		for t0 := 0; t0 < tc.n; t0++ {
			own := blockOwner(tc.n, tc.p, t0)
			lo, hi := own*tc.n/tc.p, (own+1)*tc.n/tc.p
			if t0 < lo || t0 >= hi {
				t.Fatalf("blockOwner(%d,%d,%d) = %d covering [%d,%d)", tc.n, tc.p, t0, own, lo, hi)
			}
		}
	}
}

// Property: SUMMA equals the reference for random shapes, grids, and
// panel widths.
func TestSUMMAProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := mat.NewRNG(seed)
		pr := 1 + rng.Intn(3)
		pc := 1 + rng.Intn(3)
		m := 1 + rng.Intn(24)
		k := 1 + rng.Intn(24)
		n := 1 + rng.Intn(24)
		panel := rng.Intn(10)
		a := mat.Random(m, k, seed+1)
		b := mat.Random(k, n, seed+2)
		cfg := Config{Pr: pr, Pc: pc, M: m, K: k, N: n, Panel: panel}
		out := mat.New(m, n)
		var mu sync.Mutex
		_, err := mpi.Run(pr*pc, func(c *mpi.Comm) {
			row, col := c.Rank()/pc, c.Rank()%pc
			ar0, ac0, arows, acols := cfg.ABlock(row, col)
			br0, bc0, brows, bcols := cfg.BBlock(row, col)
			cLoc, _ := multiply(c, a.View(ar0, ac0, arows, acols).Clone(), b.View(br0, bc0, brows, bcols).Clone(), cfg)
			cr0, cc0, crows, ccols := cfg.CBlock(row, col)
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
