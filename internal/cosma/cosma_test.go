package cosma

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/grid"
	"repro/internal/mat"
	"repro/internal/mpi"
)

func runCOSMA(t testing.TB, pl *Plan, a, b *mat.Dense) *mat.Dense {
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

func TestLayoutsValid(t *testing.T) {
	for _, tc := range []struct{ m, n, k, p int }{
		{32, 32, 32, 8}, {12, 12, 480, 12}, {480, 12, 12, 12},
		{96, 96, 8, 9}, {10, 10, 10, 7}, {33, 17, 65, 17},
	} {
		pl, err := NewPlan(tc.m, tc.n, tc.k, tc.p, false, false, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for name, l := range map[string]dist.Layout{"A": pl.ALayout, "B": pl.BLayout, "C": pl.CLayout} {
			if err := dist.Validate(l); err != nil {
				t.Fatalf("%+v grid %v: %s layout: %v", tc, pl.G, name, err)
			}
		}
	}
}

func TestStepsFactorizeGrid(t *testing.T) {
	pl, err := NewPlan(64, 64, 64, 24, false, false, Options{})
	if err != nil {
		t.Fatal(err)
	}
	prod := map[byte]int{'m': 1, 'n': 1, 'k': 1}
	for _, s := range pl.Steps {
		prod[s.Dim] *= s.Parts
	}
	if prod['m'] != pl.G.Pm || prod['n'] != pl.G.Pn || prod['k'] != pl.G.Pk {
		t.Fatalf("steps %v do not factorize grid %v", pl.Steps, pl.G)
	}
}

func TestCorrectnessClasses(t *testing.T) {
	for _, tc := range []struct {
		name       string
		m, n, k, p int
	}{
		{"square", 48, 48, 48, 8},
		{"large-K", 12, 12, 480, 12},
		{"large-M", 480, 12, 12, 12},
		{"flat", 96, 96, 8, 9},
		{"prime-P", 20, 20, 20, 7},
		{"single", 9, 9, 9, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pl, err := NewPlan(tc.m, tc.n, tc.k, tc.p, false, false, Options{})
			if err != nil {
				t.Fatal(err)
			}
			a := mat.Random(tc.m, tc.k, 1)
			b := mat.Random(tc.k, tc.n, 2)
			got := runCOSMA(t, pl, a, b)
			if d := mat.MaxAbsDiff(got, ref(a, b)); d > 1e-9 {
				t.Fatalf("grid %v: diff %v", pl.G, d)
			}
		})
	}
}

func TestForcedGrid(t *testing.T) {
	a := mat.Random(24, 36, 3)
	b := mat.Random(36, 24, 4)
	pl, err := NewPlan(24, 24, 36, 12, false, false, Options{Grid: grid.Grid{Pm: 3, Pn: 2, Pk: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if pl.G.Pm != 3 || pl.G.Pn != 2 || pl.G.Pk != 2 {
		t.Fatalf("grid %v", pl.G)
	}
	got := runCOSMA(t, pl, a, b)
	if d := mat.MaxAbsDiff(got, ref(a, b)); d > 1e-10 {
		t.Fatalf("diff %v", d)
	}
}

func TestTranspose(t *testing.T) {
	pl, err := NewPlan(12, 14, 10, 6, true, false, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := mat.Random(10, 12, 5)
	b := mat.Random(10, 14, 6)
	got := runCOSMA(t, pl, a, b)
	want := mat.New(12, 14)
	mat.GemmRef(mat.Trans, mat.NoTrans, 1, a, b, 0, want)
	if d := mat.MaxAbsDiff(got, want); d > 1e-10 {
		t.Fatalf("diff %v", d)
	}
}

func TestMemoryModelLargerThanCA3DMMAtScale(t *testing.T) {
	// Table I trend: COSMA's full input replication costs more than
	// CA3DMM-style pipelining when the replication factor is large.
	pl, err := NewPlan(1000, 1000, 10, 64, false, false, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pl.MemoryModel() <= 0 {
		t.Fatal("non-positive memory model")
	}
}

func TestPlanErrors(t *testing.T) {
	if _, err := NewPlan(0, 1, 1, 1, false, false, Options{}); err == nil {
		t.Fatal("expected error")
	}
	if _, err := NewPlan(5, 5, 5, 0, false, false, Options{}); err == nil {
		t.Fatal("expected error")
	}
	if _, err := NewPlan(5, 5, 5, 2, false, false, Options{Grid: grid.Grid{Pm: 2, Pn: 2, Pk: 2}}); err == nil {
		t.Fatal("expected error for oversized forced grid")
	}
}

func TestProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := mat.NewRNG(seed)
		m := 1 + rng.Intn(30)
		n := 1 + rng.Intn(30)
		k := 1 + rng.Intn(30)
		p := 1 + rng.Intn(14)
		pl, err := NewPlan(m, n, k, p, false, false, Options{})
		if err != nil {
			return false
		}
		a := mat.Random(m, k, seed+1)
		b := mat.Random(k, n, seed+2)
		got := runCOSMA(t, pl, a, b)
		return mat.MaxAbsDiff(got, ref(a, b)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
