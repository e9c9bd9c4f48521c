package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/grid"
	"repro/internal/mat"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// Tests for the Section V memory-control extension: capping the number
// of k-task groups trades communication volume for memory.

func TestMaxPkCapsKTaskGroups(t *testing.T) {
	base := mustPlan(t, 64, 64, 4096, 32, false, false, Options{})
	if base.G.Pk < 4 {
		t.Fatalf("baseline grid %v should have large pk for large-K", base.G)
	}
	capped := mustPlan(t, 64, 64, 4096, 32, false, false, Options{MaxPk: 2})
	if capped.G.Pk > 2 {
		t.Fatalf("MaxPk=2 ignored: grid %v", capped.G)
	}
	// The trade-off of the paper: less memory, more volume.
	if capped.MemoryModel() >= base.MemoryModel() {
		t.Fatalf("capping pk should reduce memory: %v vs %v", capped.MemoryModel(), base.MemoryModel())
	}
	if grid.SurfaceCost(64, 64, 4096, capped.G) < grid.SurfaceCost(64, 64, 4096, base.G) {
		t.Fatalf("capping pk should not reduce communication surface")
	}
}

func TestMaxPkStillCorrect(t *testing.T) {
	pl := mustPlan(t, 32, 32, 512, 16, false, false, Options{MaxPk: 2})
	a := mat.Random(32, 512, 1)
	b := mat.Random(512, 32, 2)
	got := runCA3DMM(t, pl, a, b)
	if d := mat.MaxAbsDiff(got, refOp(a, b, false, false)); d > 1e-9 {
		t.Fatalf("diff %v", d)
	}
}

func TestMemoryLimitReducesGrid(t *testing.T) {
	const m, n, k, p = 64, 64, 4096, 32
	base := mustPlan(t, m, n, k, p, false, false, Options{})
	baseMem := base.MemoryModel() * 8
	// Memory here is input-dominated, so only a modest reduction is
	// achievable (dropping the pk·mn/P partial-C term); ask for a
	// limit between the default and the reachable floor.
	floor := mustPlan(t, m, n, k, p, false, false, Options{MaxPk: 2}).MemoryModel() * 8
	if floor >= baseMem {
		t.Fatalf("test setup: floor %v not below base %v", floor, baseMem)
	}
	limit := int64((baseMem + floor) / 2)
	limited, err := NewPlan(m, n, k, p, false, false, Options{MemoryLimitBytes: limit})
	if err != nil {
		t.Fatal(err)
	}
	if got := limited.MemoryModel() * 8; got > float64(limit) {
		t.Fatalf("limited plan uses %v bytes, limit %v", got, limit)
	}
	if limited.G.Pk >= base.G.Pk {
		t.Fatalf("memory fitting should reduce pk: %v vs %v", limited.G, base.G)
	}
	// And it still multiplies correctly.
	a := mat.Random(m, k, 3)
	b := mat.Random(k, n, 4)
	got := runCA3DMM(t, limited, a, b)
	if d := mat.MaxAbsDiff(got, refOp(a, b, false, false)); d > 1e-9 {
		t.Fatalf("diff %v", d)
	}
}

func TestMemoryLimitInfeasible(t *testing.T) {
	_, err := NewPlan(512, 512, 512, 4, false, false, Options{MemoryLimitBytes: 100})
	if err == nil || !strings.Contains(err.Error(), "unsatisfiable") {
		t.Fatalf("err = %v", err)
	}
}

func TestMemoryLimitAlreadyFits(t *testing.T) {
	pl, err := NewPlan(64, 64, 64, 8, false, false, Options{MemoryLimitBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	def := mustPlan(t, 64, 64, 64, 8, false, false, Options{})
	if pl.G != def.G {
		t.Fatalf("generous limit changed the grid: %v vs %v", pl.G, def.G)
	}
}

// TestUnifiedViewMatches1D verifies the paper's central claim that the
// unified view degenerates to the optimal 1D algorithms: on degenerate
// shapes CA3DMM picks the 1D grid and its measured communication
// volume matches the dedicated 1D algorithm's within a small factor.
func TestUnifiedViewMatches1D(t *testing.T) {
	cases := []struct {
		name    string
		m, n, k int
		wantDim string // which dimension should carry the parallelism
	}{
		{"inner-product", 1, 1, 4096, "k"},
		{"matvec", 4096, 1, 64, "m"},
		{"vecmat", 1, 4096, 64, "n"},
	}
	const p = 8
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pl := mustPlan(t, tc.m, tc.n, tc.k, p, false, false, Options{})
			switch tc.wantDim {
			case "k":
				if pl.G.Pm != 1 || pl.G.Pn != 1 || pl.G.Pk < p-1 {
					t.Fatalf("grid %v is not the 1D-k grid", pl.G)
				}
			case "m":
				if pl.G.Pn != 1 || pl.G.Pk != 1 || pl.G.Pm < p-1 {
					t.Fatalf("grid %v is not the 1D-m grid", pl.G)
				}
			case "n":
				if pl.G.Pm != 1 || pl.G.Pk != 1 || pl.G.Pn < p-1 {
					t.Fatalf("grid %v is not the 1D-n grid", pl.G)
				}
			}
			// Execute from the native layouts (no redistribution
			// traffic) and compare the measured volume against the
			// eq. (4) surface for the 1D grid — which is what the
			// dedicated 1D algorithm also moves.
			a := mat.Random(tc.m, tc.k, 1)
			b := mat.Random(tc.k, tc.n, 2)
			aLocs := dist.Scatter(a, pl.ALayout)
			bLocs := dist.Scatter(b, pl.BLayout)
			rep, err := mpi.Run(p, func(c *mpi.Comm) {
				pl.Execute(c, aLocs[c.Rank()], pl.ALayout, bLocs[c.Rank()], pl.BLayout, pl.CLayout)
			})
			if err != nil {
				t.Fatal(err)
			}
			// Total moved bytes should be within a small factor of the
			// one-sided surface (allgather of the replicated matrix or
			// reduce-scatter of C).
			surface := float64(grid.SurfaceCost(tc.m, tc.n, tc.k, pl.G)) / 2 * 8
			total := float64(rep.TotalBytesSent())
			if total > 3*surface {
				t.Fatalf("moved %v bytes, surface model %v", total, surface)
			}
		})
	}
}

func TestTraceRecordsStages(t *testing.T) {
	rec := obs.NewRecorder()
	pl := mustPlan(t, 40, 40, 160, 8, false, false, Options{Trace: rec})
	a := mat.Random(40, 160, 1)
	b := mat.Random(160, 40, 2)
	got := runCA3DMM(t, pl, a, b)
	if d := mat.MaxAbsDiff(got, refOp(a, b, false, false)); d > 1e-10 {
		t.Fatalf("diff %v", d)
	}
	totals := rec.StageTotals()
	for _, stage := range []string{"redistribute-in", "cannon", "redistribute-out"} {
		if _, ok := totals[stage]; !ok {
			t.Fatalf("stage %q missing from trace (have %v)", stage, totals)
		}
	}
	if pl.G.Pk > 1 {
		if _, ok := totals["reduce-scatter"]; !ok {
			t.Fatalf("reduce-scatter missing from trace with pk=%d", pl.G.Pk)
		}
	}
	var buf bytes.Buffer
	if err := rec.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 50 {
		t.Fatal("chrome trace suspiciously small")
	}
}
