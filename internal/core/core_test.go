package core

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/grid"
	"repro/internal/mat"
	"repro/internal/mpi"
)

// runCA3DMM executes the full algorithm: scatter the stored A and B by
// 1D column layouts (the reference example program's layout), multiply
// with the given plan, assemble the 1D-column-distributed C.
func runCA3DMM(t testing.TB, p *Plan, aStored, bStored *mat.Dense) *mat.Dense {
	t.Helper()
	aL := dist.Block1DCol{R: aStored.Rows, C: aStored.Cols, P: p.P}
	bL := dist.Block1DCol{R: bStored.Rows, C: bStored.Cols, P: p.P}
	cL := dist.Block1DCol{R: p.M, C: p.N, P: p.P}
	aLocs := dist.Scatter(aStored, aL)
	bLocs := dist.Scatter(bStored, bL)
	outs := make([]*mat.Dense, p.P)
	var mu sync.Mutex
	_, err := mpi.Run(p.P, func(c *mpi.Comm) {
		cLoc, _ := p.Execute(c, aLocs[c.Rank()], aL, bLocs[c.Rank()], bL, cL)
		mu.Lock()
		outs[c.Rank()] = cLoc
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	return dist.Assemble(outs, cL)
}

// refOp computes op(A)·op(B) serially.
func refOp(aStored, bStored *mat.Dense, transA, transB bool) *mat.Dense {
	ta, tb := mat.NoTrans, mat.NoTrans
	m, k := aStored.Rows, aStored.Cols
	if transA {
		ta = mat.Trans
		m = aStored.Cols
		k = aStored.Rows
	}
	n := bStored.Cols
	if transB {
		tb = mat.Trans
		n = bStored.Rows
	}
	_ = k
	c := mat.New(m, n)
	mat.GemmRef(ta, tb, 1, aStored, bStored, 0, c)
	return c
}

func mustPlan(t testing.TB, m, n, k, p int, transA, transB bool, opt Options) *Plan {
	t.Helper()
	pl, err := NewPlan(m, n, k, p, transA, transB, opt)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestLayoutsValid(t *testing.T) {
	// Native layouts must tile the global matrices exactly once for a
	// spread of shapes, grids, and idle-process counts.
	cases := []struct{ m, n, k, p int }{
		{32, 64, 16, 8},  // paper Example 1 (c=2, A replicated)
		{32, 32, 64, 16}, // paper Example 2 (pk=4)
		{32, 32, 64, 17}, // paper Example 3 (idle rank)
		{64, 32, 16, 8},  // B replicated
		{10, 10, 10, 7},  // prime P
		{5, 3, 2, 4},
		{1, 1, 64, 8},  // inner product
		{64, 1, 64, 8}, // matvec
		{100, 100, 100, 24},
	}
	for _, tc := range cases {
		pl := mustPlan(t, tc.m, tc.n, tc.k, tc.p, false, false, Options{})
		for name, l := range map[string]dist.Layout{"A": pl.ALayout, "B": pl.BLayout, "C": pl.CLayout} {
			if err := dist.Validate(l); err != nil {
				t.Fatalf("%dx%dx%d P=%d grid=%v: %s layout invalid: %v", tc.m, tc.k, tc.n, tc.p, pl.G, name, err)
			}
		}
	}
}

func TestPaperExample1Grid(t *testing.T) {
	pl := mustPlan(t, 32, 64, 16, 8, false, false, Options{})
	if pl.G.Pm != 2 || pl.G.Pn != 4 || pl.G.Pk != 1 {
		t.Fatalf("grid %v, want 2x4x1", pl.G)
	}
	if pl.Crep != 2 || pl.S != 2 || !pl.RepA {
		t.Fatalf("c=%d s=%d repA=%v", pl.Crep, pl.S, pl.RepA)
	}
	a := mat.Random(32, 16, 1)
	b := mat.Random(16, 64, 2)
	got := runCA3DMM(t, pl, a, b)
	if d := mat.MaxAbsDiff(got, refOp(a, b, false, false)); d > 1e-10 {
		t.Fatalf("diff %v", d)
	}
}

func TestPaperExample2(t *testing.T) {
	pl := mustPlan(t, 32, 32, 64, 16, false, false, Options{})
	if pl.G.Pm != 2 || pl.G.Pn != 2 || pl.G.Pk != 4 {
		t.Fatalf("grid %v, want 2x2x4", pl.G)
	}
	a := mat.Random(32, 64, 3)
	b := mat.Random(64, 32, 4)
	got := runCA3DMM(t, pl, a, b)
	if d := mat.MaxAbsDiff(got, refOp(a, b, false, false)); d > 1e-10 {
		t.Fatalf("diff %v", d)
	}
}

func TestPaperExample3IdleRank(t *testing.T) {
	pl := mustPlan(t, 32, 32, 64, 17, false, false, Options{})
	if pl.ActiveProcs() != 16 || pl.P != 17 {
		t.Fatalf("active %d of %d", pl.ActiveProcs(), pl.P)
	}
	a := mat.Random(32, 64, 5)
	b := mat.Random(64, 32, 6)
	got := runCA3DMM(t, pl, a, b)
	if d := mat.MaxAbsDiff(got, refOp(a, b, false, false)); d > 1e-10 {
		t.Fatalf("diff %v", d)
	}
}

func TestProblemClasses(t *testing.T) {
	// The paper's four evaluation classes, scaled down.
	cases := []struct {
		name       string
		m, n, k, p int
	}{
		{"square", 48, 48, 48, 8},
		{"large-K", 12, 12, 480, 12},
		{"large-M", 480, 12, 12, 12},
		{"flat", 96, 96, 8, 9},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pl := mustPlan(t, tc.m, tc.n, tc.k, tc.p, false, false, Options{})
			a := mat.Random(tc.m, tc.k, 7)
			b := mat.Random(tc.k, tc.n, 8)
			got := runCA3DMM(t, pl, a, b)
			if d := mat.MaxAbsDiff(got, refOp(a, b, false, false)); d > 1e-9 {
				t.Fatalf("%s grid %v: diff %v", tc.name, pl.G, d)
			}
		})
	}
}

func TestDegenerateShapes(t *testing.T) {
	cases := []struct {
		name       string
		m, n, k, p int
	}{
		{"rank-1 update", 24, 24, 1, 8},
		{"matvec", 32, 1, 32, 8},
		{"vec-mat", 1, 32, 32, 8},
		{"inner product", 1, 1, 64, 8},
		{"outer product", 16, 16, 1, 4},
		{"scalar", 1, 1, 1, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pl := mustPlan(t, tc.m, tc.n, tc.k, tc.p, false, false, Options{})
			a := mat.Random(tc.m, tc.k, 9)
			b := mat.Random(tc.k, tc.n, 10)
			got := runCA3DMM(t, pl, a, b)
			if d := mat.MaxAbsDiff(got, refOp(a, b, false, false)); d > 1e-10 {
				t.Fatalf("grid %v: diff %v", pl.G, d)
			}
		})
	}
}

func TestTransposes(t *testing.T) {
	const m, n, k, p = 21, 17, 27, 6
	for _, ta := range []bool{false, true} {
		for _, tb := range []bool{false, true} {
			pl := mustPlan(t, m, n, k, p, ta, tb, Options{})
			ar, ac := m, k
			if ta {
				ar, ac = k, m
			}
			br, bc := k, n
			if tb {
				br, bc = n, k
			}
			a := mat.Random(ar, ac, 11)
			b := mat.Random(br, bc, 12)
			got := runCA3DMM(t, pl, a, b)
			if d := mat.MaxAbsDiff(got, refOp(a, b, ta, tb)); d > 1e-10 {
				t.Fatalf("transA=%v transB=%v: diff %v", ta, tb, d)
			}
		}
	}
}

func TestForcedGrids(t *testing.T) {
	// Drive CA3DMM with explicit grids as Table II does, including
	// deliberately sub-optimal ones.
	a := mat.Random(36, 60, 13)
	b := mat.Random(60, 36, 14)
	want := refOp(a, b, false, false)
	for _, g := range []grid.Grid{
		{Pm: 2, Pn: 2, Pk: 3},
		{Pm: 1, Pn: 4, Pk: 3},
		{Pm: 4, Pn: 1, Pk: 3},
		{Pm: 6, Pn: 2, Pk: 1},
		{Pm: 1, Pn: 1, Pk: 12},
		{Pm: 3, Pn: 3, Pk: 1},
	} {
		pl := mustPlan(t, 36, 36, 60, 12, false, false, Options{Grid: g})
		got := runCA3DMM(t, pl, a, b)
		if d := mat.MaxAbsDiff(got, want); d > 1e-10 {
			t.Fatalf("grid %v: diff %v", g, d)
		}
	}
}

func TestForcedGridErrors(t *testing.T) {
	if _, err := NewPlan(8, 8, 8, 4, false, false, Options{Grid: grid.Grid{Pm: 2, Pn: 2, Pk: 2}}); err == nil {
		t.Fatal("expected error: grid larger than P")
	}
	if _, err := NewPlan(2, 8, 8, 16, false, false, Options{Grid: grid.Grid{Pm: 4, Pn: 2, Pk: 2}}); err == nil {
		t.Fatal("expected error: pm > m")
	}
}

func TestOptionsVariants(t *testing.T) {
	a := mat.Random(30, 40, 15)
	b := mat.Random(40, 30, 16)
	want := refOp(a, b, false, false)
	for _, opt := range []Options{
		{DualBuffer: true},
		{MultiShift: 4},
		{DualBuffer: true, MultiShift: 2, MinKBlock: 128},
		{UseSUMMA: true},
		{UseSUMMA: true, SUMMAPanel: 5},
	} {
		pl := mustPlan(t, 30, 30, 40, 12, false, false, opt)
		got := runCA3DMM(t, pl, a, b)
		if d := mat.MaxAbsDiff(got, want); d > 1e-10 {
			t.Fatalf("opt %+v grid %v: diff %v", opt, pl.G, d)
		}
	}
}

func TestUserLayoutVariants(t *testing.T) {
	// Different user layouts for A, B, C in one call.
	const m, n, k, p = 24, 18, 30, 6
	pl := mustPlan(t, m, n, k, p, false, false, Options{})
	a := mat.Random(m, k, 17)
	b := mat.Random(k, n, 18)
	aL := dist.Block1DRow{R: m, C: k, P: p}
	bL := dist.BlockCyclic2D{R: k, C: n, Pr: 2, Pc: 3, Mb: 4, Nb: 4}
	cL := dist.Block2D{R: m, C: n, Pr: 3, Pc: 2}
	aLocs := dist.Scatter(a, aL)
	bLocs := dist.Scatter(b, bL)
	outs := make([]*mat.Dense, p)
	var mu sync.Mutex
	_, err := mpi.Run(p, func(c *mpi.Comm) {
		cLoc, _ := pl.Execute(c, aLocs[c.Rank()], aL, bLocs[c.Rank()], bL, cL)
		mu.Lock()
		outs[c.Rank()] = cLoc
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	got := dist.Assemble(outs, cL)
	if d := mat.MaxAbsDiff(got, refOp(a, b, false, false)); d > 1e-10 {
		t.Fatalf("diff %v", d)
	}
}

func TestTimingsReported(t *testing.T) {
	pl := mustPlan(t, 40, 40, 40, 8, false, false, Options{})
	a := mat.Random(40, 40, 19)
	b := mat.Random(40, 40, 20)
	aL := dist.Block1DCol{R: 40, C: 40, P: 8}
	aLocs := dist.Scatter(a, aL)
	bLocs := dist.Scatter(b, aL)
	_, err := mpi.Run(8, func(c *mpi.Comm) {
		_, tm := pl.Execute(c, aLocs[c.Rank()], aL, bLocs[c.Rank()], aL, aL)
		if tm.Total <= 0 {
			t.Errorf("rank %d: no total time", c.Rank())
		}
		if tm.Redistribute <= 0 {
			t.Errorf("rank %d: no redistribute time", c.Rank())
		}
		if tm.MatmulOnly < 0 {
			t.Errorf("rank %d: negative matmul-only time", c.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPlanReuse(t *testing.T) {
	// One plan, several executions with different data.
	pl := mustPlan(t, 20, 20, 20, 6, false, false, Options{})
	for trial := 0; trial < 3; trial++ {
		a := mat.Random(20, 20, uint64(100+trial))
		b := mat.Random(20, 20, uint64(200+trial))
		got := runCA3DMM(t, pl, a, b)
		if d := mat.MaxAbsDiff(got, refOp(a, b, false, false)); d > 1e-10 {
			t.Fatalf("trial %d: diff %v", trial, d)
		}
	}
}

func TestPlanErrors(t *testing.T) {
	if _, err := NewPlan(0, 4, 4, 4, false, false, Options{}); err == nil {
		t.Fatal("expected error for m=0")
	}
	if _, err := NewPlan(4, 4, 4, 0, false, false, Options{}); err == nil {
		t.Fatal("expected error for p=0")
	}
}

func TestStatsMatchAnalyticQ(t *testing.T) {
	// Communication volume (excluding redistribution) should be within
	// a small factor of the paper's lower bound Q for a well-shaped
	// problem. This is the Section III-D sanity check.
	const m, n, k, p = 64, 64, 64, 8
	pl := mustPlan(t, m, n, k, p, false, false, Options{})
	a := mat.Random(m, k, 21)
	b := mat.Random(k, n, 22)
	// Use native layouts directly to exclude redistribution traffic.
	aLocs := dist.Scatter(a, pl.ALayout)
	bLocs := dist.Scatter(b, pl.BLayout)
	rep, err := mpi.Run(p, func(c *mpi.Comm) {
		pl.Execute(c, aLocs[c.Rank()], pl.ALayout, bLocs[c.Rank()], pl.BLayout, pl.CLayout)
	})
	if err != nil {
		t.Fatal(err)
	}
	q := grid.CommLowerBound(m, n, k, pl.ActiveProcs()) // elements per process
	maxSent := float64(rep.MaxBytesSent()) / 8          // elements
	// Ring reduce-scatter and skew overheads allow a modest factor.
	if maxSent > 4*q {
		t.Fatalf("per-process traffic %v elements exceeds 4x lower bound %v", maxSent, q)
	}
	if maxSent == 0 {
		t.Fatal("no traffic recorded")
	}
}

func TestMemoryModelMatchesMeasured(t *testing.T) {
	// Peak recorded allocation should track eq. (11) within the
	// padding slack.
	const m, n, k, p = 60, 60, 60, 12
	pl := mustPlan(t, m, n, k, p, false, false, Options{})
	a := mat.Random(m, k, 23)
	b := mat.Random(k, n, 24)
	aLocs := dist.Scatter(a, pl.ALayout)
	bLocs := dist.Scatter(b, pl.BLayout)
	rep, err := mpi.Run(p, func(c *mpi.Comm) {
		pl.Execute(c, aLocs[c.Rank()], pl.ALayout, bLocs[c.Rank()], pl.BLayout, pl.CLayout)
	})
	if err != nil {
		t.Fatal(err)
	}
	model := pl.MemoryModel() * 8 // bytes
	meas := float64(rep.MaxPeakAlloc())
	if meas < 0.5*model || meas > 2.5*model {
		t.Fatalf("peak alloc %v vs model %v (grid %v)", meas, model, pl.G)
	}
}

func TestWorkCuboidAndUtilization(t *testing.T) {
	pl := mustPlan(t, 8000, 8000, 8000, 24, false, false, Options{})
	mb, nb, kb := pl.WorkCuboid()
	if mb*pl.G.Pm < 8000 || nb*pl.G.Pn < 8000 || kb*pl.G.Pk < 8000 {
		t.Fatalf("work cuboid %dx%dx%d does not cover the problem for grid %v", mb, nb, kb, pl.G)
	}
	if u := pl.Utilization(); u <= 0 || u > 1 {
		t.Fatalf("utilization %v", u)
	}
	if r := pl.LowerBoundRatio(); r < 1-1e-9 {
		t.Fatalf("lower bound ratio %v < 1", r)
	}
}

// Property: CA3DMM equals the serial reference over random problems,
// process counts, transposes, and kernel options.
func TestCA3DMMProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := mat.NewRNG(seed)
		m := 1 + rng.Intn(40)
		n := 1 + rng.Intn(40)
		k := 1 + rng.Intn(40)
		p := 1 + rng.Intn(16)
		ta := rng.Intn(2) == 1
		tb := rng.Intn(2) == 1
		opt := Options{
			DualBuffer: rng.Intn(2) == 1,
			MultiShift: rng.Intn(3),
			UseSUMMA:   rng.Intn(4) == 0,
		}
		pl, err := NewPlan(m, n, k, p, ta, tb, opt)
		if err != nil {
			return false
		}
		ar, ac := m, k
		if ta {
			ar, ac = k, m
		}
		br, bc := k, n
		if tb {
			br, bc = n, k
		}
		a := mat.Random(ar, ac, seed+1)
		b := mat.Random(br, bc, seed+2)

		aL := dist.Block1DCol{R: ar, C: ac, P: p}
		bL := dist.Block1DCol{R: br, C: bc, P: p}
		cL := dist.Block1DCol{R: m, C: n, P: p}
		aLocs := dist.Scatter(a, aL)
		bLocs := dist.Scatter(b, bL)
		outs := make([]*mat.Dense, p)
		var mu sync.Mutex
		_, err = mpi.Run(p, func(c *mpi.Comm) {
			cLoc, _ := pl.Execute(c, aLocs[c.Rank()], aL, bLocs[c.Rank()], bL, cL)
			mu.Lock()
			outs[c.Rank()] = cLoc
			mu.Unlock()
		})
		if err != nil {
			return false
		}
		got := dist.Assemble(outs, cL)
		return mat.MaxAbsDiff(got, refOp(a, b, ta, tb)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPaperExample2FinalCDistribution pins the reduce-scatter output
// layout to the paper's Example 2 text: "Processes P1, P5, P9, P13
// have partial results of C(1:16,1:16). After reduce-scatter, P1 has
// the final C(1:16,1:4), P5 has the final C(1:16,5:8), P9 has the
// final C(1:16,9:12), and P13 has the final C(1:16,13:16)." (1-based
// in the paper; ranks 0, 4, 8, 12 here.)
func TestPaperExample2FinalCDistribution(t *testing.T) {
	pl := mustPlan(t, 32, 32, 64, 16, false, false, Options{})
	if pl.G.Pm != 2 || pl.G.Pn != 2 || pl.G.Pk != 4 {
		t.Fatalf("grid %v", pl.G)
	}
	wantCols := map[int][2]int{0: {0, 4}, 4: {4, 8}, 8: {8, 12}, 12: {12, 16}}
	for rank, cols := range wantCols {
		pieces := pl.CLayout.Pieces(rank)
		if len(pieces) != 1 {
			t.Fatalf("rank %d: %d pieces", rank, len(pieces))
		}
		p := pieces[0]
		if p.R0 != 0 || p.Rows != 16 || p.C0 != cols[0] || p.Cols != cols[1]-cols[0] {
			t.Fatalf("rank %d owns C(%d:%d,%d:%d), want C(0:16,%d:%d)",
				rank, p.R0, p.R0+p.Rows, p.C0, p.C0+p.Cols, cols[0], cols[1])
		}
	}
}

// TestPaperExample2KTaskGroups pins the k-range assignment: "Processes
// P_{1<=i<=4} form the first k-task group and compute A(:,1:16) x
// B(1:16,:)", i.e. ranks 0-3 hold A columns 0:16 and B rows 0:16.
func TestPaperExample2KTaskGroups(t *testing.T) {
	pl := mustPlan(t, 32, 32, 64, 16, false, false, Options{})
	for rank := 0; rank < 4; rank++ {
		for _, p := range pl.ALayout.Pieces(rank) {
			if p.C0 < 0 || p.C0+p.Cols > 16 {
				t.Fatalf("rank %d holds A cols [%d,%d), want within [0,16)", rank, p.C0, p.C0+p.Cols)
			}
		}
		for _, p := range pl.BLayout.Pieces(rank) {
			if p.R0 < 0 || p.R0+p.Rows > 16 {
				t.Fatalf("rank %d holds B rows [%d,%d), want within [0,16)", rank, p.R0, p.R0+p.Rows)
			}
		}
	}
}
