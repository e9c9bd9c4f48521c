package algo1d

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/mat"
	"repro/internal/mpi"
)

func run1D(t testing.TB, pl *Plan, a, b *mat.Dense) *mat.Dense {
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

func TestChoose(t *testing.T) {
	if v := Choose(10000, 40, 40); v != SplitM {
		t.Fatalf("large-M chose %v", v)
	}
	if v := Choose(40, 10000, 40); v != SplitN {
		t.Fatalf("large-N chose %v", v)
	}
	if v := Choose(40, 40, 10000); v != SplitK {
		t.Fatalf("large-K chose %v", v)
	}
}

func TestLayoutsValid(t *testing.T) {
	for _, v := range []Variant{SplitM, SplitN, SplitK} {
		for _, tc := range []struct{ m, n, k, p int }{
			{40, 30, 20, 4}, {3, 3, 3, 5}, {1, 1, 64, 8}, {64, 1, 1, 8},
		} {
			pl, err := NewPlan(tc.m, tc.n, tc.k, tc.p, false, false, v)
			if err != nil {
				t.Fatal(err)
			}
			for name, l := range map[string]dist.Layout{"A": pl.ALayout, "B": pl.BLayout, "C": pl.CLayout} {
				if err := dist.Validate(l); err != nil {
					t.Fatalf("%v %+v: %s: %v", v, tc, name, err)
				}
			}
		}
	}
}

func TestCorrectnessAllVariants(t *testing.T) {
	a := mat.Random(30, 40, 1)
	b := mat.Random(40, 25, 2)
	want := ref(a, b)
	for _, v := range []Variant{Auto, SplitM, SplitN, SplitK} {
		for _, p := range []int{1, 3, 6} {
			pl, err := NewPlan(30, 25, 40, p, false, false, v)
			if err != nil {
				t.Fatal(err)
			}
			got := run1D(t, pl, a, b)
			if d := mat.MaxAbsDiff(got, want); d > 1e-10 {
				t.Fatalf("%v p=%d: diff %v", v, p, d)
			}
		}
	}
}

func TestDegenerateShapes(t *testing.T) {
	cases := []struct{ m, n, k, p int }{
		{1, 1, 100, 8}, // inner product -> SplitK
		{100, 1, 40, 8},
		{1, 100, 40, 8},
		{40, 40, 1, 8}, // outer product
	}
	for _, tc := range cases {
		pl, err := NewPlan(tc.m, tc.n, tc.k, tc.p, false, false, Auto)
		if err != nil {
			t.Fatal(err)
		}
		a := mat.Random(tc.m, tc.k, 3)
		b := mat.Random(tc.k, tc.n, 4)
		got := run1D(t, pl, a, b)
		if d := mat.MaxAbsDiff(got, ref(a, b)); d > 1e-10 {
			t.Fatalf("%+v (%v): diff %v", tc, pl.V, d)
		}
	}
}

func TestInnerProductUsesSplitK(t *testing.T) {
	pl, err := NewPlan(1, 1, 100, 8, false, false, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if pl.V != SplitK {
		t.Fatalf("inner product chose %v", pl.V)
	}
}

func TestTranspose(t *testing.T) {
	pl, err := NewPlan(12, 14, 200, 4, true, false, Auto)
	if err != nil {
		t.Fatal(err)
	}
	a := mat.Random(200, 12, 5)
	b := mat.Random(200, 14, 6)
	got := run1D(t, pl, a, b)
	want := mat.New(12, 14)
	mat.GemmRef(mat.Trans, mat.NoTrans, 1, a, b, 0, want)
	if d := mat.MaxAbsDiff(got, want); d > 1e-9 {
		t.Fatalf("diff %v", d)
	}
}

func TestMoreRanksThanWork(t *testing.T) {
	// P larger than every dimension: some ranks hold nothing.
	pl, err := NewPlan(3, 3, 3, 9, false, false, SplitK)
	if err != nil {
		t.Fatal(err)
	}
	a := mat.Random(3, 3, 7)
	b := mat.Random(3, 3, 8)
	got := run1D(t, pl, a, b)
	if d := mat.MaxAbsDiff(got, ref(a, b)); d > 1e-10 {
		t.Fatalf("diff %v", d)
	}
}

func TestPlanErrors(t *testing.T) {
	if _, err := NewPlan(0, 1, 1, 1, false, false, Auto); err == nil {
		t.Fatal("expected error")
	}
	if _, err := NewPlan(1, 1, 1, 0, false, false, Auto); err == nil {
		t.Fatal("expected error")
	}
}

func TestProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := mat.NewRNG(seed)
		m := 1 + rng.Intn(25)
		n := 1 + rng.Intn(25)
		k := 1 + rng.Intn(25)
		p := 1 + rng.Intn(8)
		v := Variant(rng.Intn(4))
		pl, err := NewPlan(m, n, k, p, false, false, v)
		if err != nil {
			return false
		}
		a := mat.Random(m, k, seed+1)
		b := mat.Random(k, n, seed+2)
		got := run1D(t, pl, a, b)
		return mat.MaxAbsDiff(got, ref(a, b)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
