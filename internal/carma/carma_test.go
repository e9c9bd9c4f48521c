package carma

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/mat"
	"repro/internal/mpi"
)

func runCARMA(t testing.TB, pl *Plan, a, b *mat.Dense) *mat.Dense {
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

func TestPowerOfTwoRequired(t *testing.T) {
	if _, err := NewPlan(8, 8, 8, 6, false, false); err == nil {
		t.Fatal("expected error for P=6")
	}
	if _, err := NewPlan(8, 8, 8, 0, false, false); err == nil {
		t.Fatal("expected error for P=0")
	}
}

func TestSplitSequenceBisectsLargest(t *testing.T) {
	pl, err := NewPlan(100, 10, 10, 8, false, false)
	if err != nil {
		t.Fatal(err)
	}
	// m=100 dominates: first splits must all be m.
	for i, d := range pl.Splits[:2] {
		if d != DimM {
			t.Fatalf("split %d = %v, want m (sequence %v)", i, d, pl.Splits)
		}
	}
	pl2, err := NewPlan(10, 10, 1000, 8, false, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range pl2.Splits {
		if d != DimK {
			t.Fatalf("split %d = %v, want k (sequence %v)", i, d, pl2.Splits)
		}
	}
}

func TestLayoutsValid(t *testing.T) {
	for _, tc := range []struct{ m, n, k, p int }{
		{16, 16, 16, 8}, {100, 10, 10, 8}, {10, 100, 10, 16},
		{10, 10, 100, 4}, {7, 9, 11, 2}, {5, 5, 5, 1}, {33, 17, 65, 32},
	} {
		pl, err := NewPlan(tc.m, tc.n, tc.k, tc.p, false, false)
		if err != nil {
			t.Fatal(err)
		}
		for name, l := range map[string]dist.Layout{"A": pl.ALayout, "B": pl.BLayout, "C": pl.CLayout} {
			if err := dist.Validate(l); err != nil {
				t.Fatalf("%+v: %s layout: %v", tc, name, err)
			}
		}
	}
}

func TestCorrectness(t *testing.T) {
	for _, tc := range []struct{ m, n, k, p int }{
		{24, 24, 24, 8},
		{64, 8, 8, 8},   // large-M: m-splits dominate
		{8, 8, 64, 8},   // large-K: k-splits, C reduction
		{8, 64, 8, 16},  // large-N
		{13, 17, 19, 4}, // odd sizes
		{30, 30, 30, 1}, // single process
		{6, 6, 6, 32},   // more splits than comfortable
	} {
		pl, err := NewPlan(tc.m, tc.n, tc.k, tc.p, false, false)
		if err != nil {
			t.Fatal(err)
		}
		a := mat.Random(tc.m, tc.k, 1)
		b := mat.Random(tc.k, tc.n, 2)
		got := runCARMA(t, pl, a, b)
		if d := mat.MaxAbsDiff(got, ref(a, b)); d > 1e-9 {
			t.Fatalf("%+v (splits %v): diff %v", tc, pl.Splits, d)
		}
	}
}

func TestTranspose(t *testing.T) {
	pl, err := NewPlan(12, 14, 10, 8, true, true)
	if err != nil {
		t.Fatal(err)
	}
	a := mat.Random(10, 12, 3) // stored k x m
	b := mat.Random(14, 10, 4) // stored n x k
	got := runCARMA(t, pl, a, b)
	want := mat.New(12, 14)
	mat.GemmRef(mat.Trans, mat.Trans, 1, a, b, 0, want)
	if d := mat.MaxAbsDiff(got, want); d > 1e-10 {
		t.Fatalf("diff %v", d)
	}
}

func TestProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := mat.NewRNG(seed)
		m := 1 + rng.Intn(30)
		n := 1 + rng.Intn(30)
		k := 1 + rng.Intn(30)
		p := 1 << rng.Intn(5)
		pl, err := NewPlan(m, n, k, p, false, false)
		if err != nil {
			return false
		}
		a := mat.Random(m, k, seed+1)
		b := mat.Random(k, n, seed+2)
		got := runCARMA(t, pl, a, b)
		return mat.MaxAbsDiff(got, ref(a, b)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
