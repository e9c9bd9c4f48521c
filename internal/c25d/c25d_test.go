package c25d

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/mat"
	"repro/internal/mpi"
)

func run25D(t testing.TB, pl *Plan, a, b *mat.Dense) *mat.Dense {
	t.Helper()
	aL := dist.Block1DCol{R: a.Rows, C: a.Cols, P: pl.P}
	bL := dist.Block1DCol{R: b.Rows, C: b.Cols, P: pl.P}
	cL := dist.Block1DCol{R: pl.M, C: pl.N, P: pl.P}
	aLocs := dist.Scatter(a, aL)
	bLocs := dist.Scatter(b, bL)
	outs := make([]*mat.Dense, pl.P)
	var mu sync.Mutex
	_, err := mpi.Run(pl.P, func(c *mpi.Comm) {
		cLoc, _ := pl.Execute(c, core.Options{}, aLocs[c.Rank()], aL, bLocs[c.Rank()], bL, cL)
		mu.Lock()
		outs[c.Rank()] = cLoc
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	return dist.Assemble(outs, cL)
}

func ref(a, b *mat.Dense) *mat.Dense {
	c := mat.New(a.Rows, b.Cols)
	mat.GemmRef(mat.NoTrans, mat.NoTrans, 1, a, b, 0, c)
	return c
}

func TestChooseGrid(t *testing.T) {
	// 16 procs, square problem: 2x2x4 would violate c<=p; expect p=2
	// c=2 (active 8)? No: p=3 c=1 gives 9, p=2 c=2 gives 8; p=3 wins
	// on active count? 3*3*1=9 > 8. Verify the documented rule:
	// maximize active, tie prefers larger p.
	side, layers := ChooseGrid(100, 100, 100, 16)
	if side*side*layers > 16 {
		t.Fatalf("grid %dx%dx%d oversubscribes", side, side, layers)
	}
	if side*side*layers < 12 {
		t.Fatalf("grid %dx%dx%d wastes too many of 16 procs", side, side, layers)
	}
	// Layer count capped by k.
	_, layers = ChooseGrid(100, 100, 1, 64)
	if layers != 1 {
		t.Fatalf("layers %d, want 1 for k=1", layers)
	}
	// Side capped by m,n.
	side, _ = ChooseGrid(2, 2, 100, 64)
	if side > 2 {
		t.Fatalf("side %d exceeds matrix dims", side)
	}
}

func TestLayoutsValid(t *testing.T) {
	for _, tc := range []struct{ m, n, k, p int }{
		{32, 32, 32, 8}, {20, 20, 200, 16}, {200, 20, 20, 12},
		{48, 48, 6, 9}, {10, 10, 10, 7}, {9, 9, 9, 1},
	} {
		pl, err := NewPlan(tc.m, tc.n, tc.k, tc.p, false, false)
		if err != nil {
			t.Fatal(err)
		}
		for name, l := range map[string]dist.Layout{
			"A": pl.ALayout, "B": pl.BLayout, "C": pl.CLayout,
			"aSlice": pl.ASpread, "bSlice": pl.BSpread,
		} {
			if err := dist.Validate(l); err != nil {
				t.Fatalf("%+v grid %dx%dx%d: %s layout: %v", tc, pl.Side, pl.Side, pl.Layers, name, err)
			}
		}
	}
}

func TestCorrectnessClasses(t *testing.T) {
	for _, tc := range []struct {
		name       string
		m, n, k, p int
	}{
		{"square", 48, 48, 48, 8},
		{"square-16", 32, 32, 32, 16},
		{"large-K", 12, 12, 480, 16},
		{"large-M", 480, 12, 12, 12},
		{"flat", 96, 96, 8, 9},
		{"prime-P", 20, 20, 20, 7},
		{"single", 9, 9, 9, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pl, err := NewPlan(tc.m, tc.n, tc.k, tc.p, false, false)
			if err != nil {
				t.Fatal(err)
			}
			a := mat.Random(tc.m, tc.k, 1)
			b := mat.Random(tc.k, tc.n, 2)
			got := run25D(t, pl, a, b)
			if d := mat.MaxAbsDiff(got, ref(a, b)); d > 1e-9 {
				t.Fatalf("grid %dx%dx%d: diff %v", pl.Side, pl.Side, pl.Layers, d)
			}
		})
	}
}

func TestTranspose(t *testing.T) {
	pl, err := NewPlan(12, 14, 10, 8, false, true)
	if err != nil {
		t.Fatal(err)
	}
	a := mat.Random(12, 10, 5)
	b := mat.Random(14, 10, 6)
	got := run25D(t, pl, a, b)
	want := mat.New(12, 14)
	mat.GemmRef(mat.NoTrans, mat.Trans, 1, a, b, 0, want)
	if d := mat.MaxAbsDiff(got, want); d > 1e-10 {
		t.Fatalf("diff %v", d)
	}
}

func TestPlanErrors(t *testing.T) {
	if _, err := NewPlan(0, 1, 1, 1, false, false); err == nil {
		t.Fatal("expected error")
	}
	if _, err := NewPlan(5, 5, 5, -1, false, false); err == nil {
		t.Fatal("expected error")
	}
}

func TestProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := mat.NewRNG(seed)
		m := 1 + rng.Intn(30)
		n := 1 + rng.Intn(30)
		k := 1 + rng.Intn(30)
		p := 1 + rng.Intn(16)
		pl, err := NewPlan(m, n, k, p, false, false)
		if err != nil {
			return false
		}
		a := mat.Random(m, k, seed+1)
		b := mat.Random(k, n, seed+2)
		got := run25D(t, pl, a, b)
		return mat.MaxAbsDiff(got, ref(a, b)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
