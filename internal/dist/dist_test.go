package dist

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/mat"
	"repro/internal/mpi"
)

func TestBlockRange(t *testing.T) {
	// 10 items over 3 parts: sizes 3,4,3 (balanced within one).
	sizes := []int{}
	prev := 0
	for i := 0; i < 3; i++ {
		lo, hi := BlockRange(10, 3, i)
		if lo != prev {
			t.Fatalf("part %d starts at %d, want %d", i, lo, prev)
		}
		sizes = append(sizes, hi-lo)
		prev = hi
	}
	if prev != 10 {
		t.Fatalf("parts end at %d", prev)
	}
	for _, s := range sizes {
		if s < 3 || s > 4 {
			t.Fatalf("unbalanced sizes %v", sizes)
		}
	}
}

func TestLayoutsValidate(t *testing.T) {
	layouts := []Layout{
		Block1DRow{R: 10, C: 7, P: 3},
		Block1DRow{R: 2, C: 7, P: 5}, // more ranks than rows
		Block1DCol{R: 7, C: 10, P: 4},
		Block2D{R: 9, C: 11, Pr: 2, Pc: 3},
		Block2D{R: 9, C: 11, Pr: 2, Pc: 3, P: 8}, // idle ranks
		BlockCyclic2D{R: 13, C: 17, Pr: 2, Pc: 3, Mb: 2, Nb: 3},
		BlockCyclic2D{R: 4, C: 4, Pr: 3, Pc: 3, Mb: 1, Nb: 1},
	}
	for i, l := range layouts {
		if err := Validate(l); err != nil {
			t.Fatalf("layout %d: %v", i, err)
		}
	}
}

func TestExplicitLayout(t *testing.T) {
	l := NewExplicit(4, 6, 3)
	l.SetBlock(0, 0, 0, 4, 2)
	l.SetBlock(1, 0, 2, 4, 4)
	l.SetBlock(2, 0, 0, 0, 0) // idle
	if err := Validate(l); err != nil {
		t.Fatal(err)
	}
	if r, c := l.LocalShape(1); r != 4 || c != 4 {
		t.Fatalf("shape %dx%d", r, c)
	}
	if p := l.Pieces(2); p != nil {
		t.Fatalf("idle rank has pieces %v", p)
	}
}

func TestValidateCatchesGaps(t *testing.T) {
	l := NewExplicit(2, 2, 2)
	l.SetBlock(0, 0, 0, 1, 2)
	l.SetBlock(1, 1, 0, 1, 1) // (1,1) uncovered
	if err := Validate(l); err == nil {
		t.Fatal("expected gap error")
	}
}

func TestValidateCatchesOverlap(t *testing.T) {
	l := NewExplicit(2, 2, 2)
	l.SetBlock(0, 0, 0, 2, 2)
	l.SetBlock(1, 1, 1, 1, 1)
	if err := Validate(l); err == nil {
		t.Fatal("expected overlap error")
	}
}

func TestScatterAssembleRoundTrip(t *testing.T) {
	g := mat.Random(13, 17, 1)
	layouts := []Layout{
		Block1DRow{R: 13, C: 17, P: 4},
		Block1DCol{R: 13, C: 17, P: 5},
		Block2D{R: 13, C: 17, Pr: 2, Pc: 2},
		BlockCyclic2D{R: 13, C: 17, Pr: 2, Pc: 2, Mb: 3, Nb: 2},
	}
	for i, l := range layouts {
		locals := Scatter(g, l)
		back := Assemble(locals, l)
		if !mat.Equal(g, back, 0) {
			t.Fatalf("layout %d: scatter/assemble mismatch", i)
		}
	}
}

// redistribute converts a distributed matrix between layouts the way
// every caller does: one transient route, applied cold.
func redistribute(c *mpi.Comm, src Layout, local *mat.Dense, dst Layout, trans bool) *mat.Dense {
	return BuildRoute(src, dst, trans, c.Rank()).Apply(c, local, nil)
}

// runRedist scatters g by src, redistributes to dst inside an mpi run,
// and checks assembly matches want.
func runRedist(t *testing.T, g *mat.Dense, src, dst Layout, trans bool, want *mat.Dense) {
	t.Helper()
	p := src.Procs()
	locals := Scatter(g, src)
	outs := make([]*mat.Dense, p)
	var mu sync.Mutex
	_, err := mpi.Run(p, func(c *mpi.Comm) {
		out := redistribute(c, src, locals[c.Rank()], dst, trans)
		mu.Lock()
		outs[c.Rank()] = out
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	got := Assemble(outs, dst)
	if !mat.Equal(got, want, 0) {
		t.Fatalf("redistribution produced wrong matrix\ngot:\n%v\nwant:\n%v", got, want)
	}
}

func TestRedistributeRowToCol(t *testing.T) {
	g := mat.Random(12, 9, 2)
	runRedist(t, g,
		Block1DRow{R: 12, C: 9, P: 4},
		Block1DCol{R: 12, C: 9, P: 4},
		false, g)
}

func TestRedistributeColTo2D(t *testing.T) {
	g := mat.Random(10, 14, 3)
	runRedist(t, g,
		Block1DCol{R: 10, C: 14, P: 6},
		Block2D{R: 10, C: 14, Pr: 2, Pc: 3},
		false, g)
}

func TestRedistribute2DToBlockCyclic(t *testing.T) {
	g := mat.Random(11, 13, 4)
	runRedist(t, g,
		Block2D{R: 11, C: 13, Pr: 2, Pc: 2},
		BlockCyclic2D{R: 11, C: 13, Pr: 2, Pc: 2, Mb: 2, Nb: 3},
		false, g)
}

func TestRedistributeToExplicitWithIdleRank(t *testing.T) {
	g := mat.Random(8, 8, 5)
	dst := NewExplicit(8, 8, 5)
	dst.SetBlock(0, 0, 0, 8, 3)
	dst.SetBlock(1, 0, 3, 8, 5)
	dst.SetBlock(2, 0, 0, 0, 0)
	dst.SetBlock(3, 0, 0, 0, 0)
	dst.SetBlock(4, 0, 0, 0, 0)
	runRedist(t, g, Block1DRow{R: 8, C: 8, P: 5}, dst, false, g)
}

func TestRedistributeTranspose(t *testing.T) {
	g := mat.Random(9, 6, 6)
	runRedist(t, g,
		Block1DCol{R: 9, C: 6, P: 3},
		Block1DRow{R: 6, C: 9, P: 3}, // layout of g^T
		true, g.Transpose())
}

func TestRedistributeTransposeBlockCyclic(t *testing.T) {
	g := mat.Random(7, 10, 7)
	runRedist(t, g,
		BlockCyclic2D{R: 7, C: 10, Pr: 2, Pc: 2, Mb: 2, Nb: 2},
		Block2D{R: 10, C: 7, Pr: 2, Pc: 2},
		true, g.Transpose())
}

func TestRedistributeIdentity(t *testing.T) {
	// src == dst must still work (pure local copy through alltoallv
	// self block).
	g := mat.Random(6, 6, 8)
	l := Block2D{R: 6, C: 6, Pr: 2, Pc: 2}
	runRedist(t, g, l, l, false, g)
}

func TestRedistributeShapeMismatchPanics(t *testing.T) {
	_, err := mpi.Run(2, func(c *mpi.Comm) {
		local := mat.New(3, 4)
		if c.Rank() == 1 {
			local = mat.New(3, 4)
		}
		redistribute(c, Block1DRow{R: 6, C: 4, P: 2}, local, Block1DRow{R: 6, C: 5, P: 2}, false)
	})
	if err == nil {
		t.Fatal("expected global-shape mismatch error")
	}
}

func TestRedistributeWrongLocalPanics(t *testing.T) {
	_, err := mpi.Run(2, func(c *mpi.Comm) {
		redistribute(c, Block1DRow{R: 6, C: 4, P: 2}, mat.New(1, 1), Block1DCol{R: 6, C: 4, P: 2}, false)
	})
	if err == nil {
		t.Fatal("expected local-shape mismatch error")
	}
}

// Property: redistributing there and back is the identity, across
// random layout pairs.
func TestRedistributeRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := mat.NewRNG(seed)
		rows := 1 + rng.Intn(16)
		cols := 1 + rng.Intn(16)
		p := 1 + rng.Intn(6)
		g := mat.Random(rows, cols, seed)

		mk := func(which int) Layout {
			switch which % 4 {
			case 0:
				return Block1DRow{R: rows, C: cols, P: p}
			case 1:
				return Block1DCol{R: rows, C: cols, P: p}
			case 2:
				pr := 1 + rng.Intn(p)
				pc := p / pr
				if pr*pc == 0 {
					pc = 1
				}
				return Block2D{R: rows, C: cols, Pr: pr, Pc: pc, P: p}
			default:
				pr := 1 + rng.Intn(2)
				pc := 1
				for pr*pc < p {
					if pr*(pc+1) <= p {
						pc++
					} else {
						break
					}
				}
				if pr*pc > p {
					pr, pc = 1, p
				}
				return BlockCyclic2D{R: rows, C: cols, Pr: pr, Pc: pc, Mb: 1 + rng.Intn(3), Nb: 1 + rng.Intn(3)}
			}
		}
		src := mk(rng.Intn(4))
		dst := mk(rng.Intn(4))
		// Block2D may leave ranks idle but must cover the matrix; the
		// engine requires equal proc counts.
		if src.Procs() != p || dst.Procs() != p {
			return true // skip incompatible draw
		}
		if Validate(src) != nil || Validate(dst) != nil {
			return true // skip degenerate draw
		}
		locals := Scatter(g, src)
		mids := make([]*mat.Dense, p)
		finals := make([]*mat.Dense, p)
		var mu sync.Mutex
		_, err := mpi.Run(p, func(c *mpi.Comm) {
			mid := redistribute(c, src, locals[c.Rank()], dst, false)
			back := redistribute(c, dst, mid, src, false)
			mu.Lock()
			mids[c.Rank()] = mid
			finals[c.Rank()] = back
			mu.Unlock()
		})
		if err != nil {
			return false
		}
		if !mat.Equal(Assemble(mids, dst), g, 0) {
			return false
		}
		return mat.Equal(Assemble(finals, src), g, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockCyclicLocalShapeConsistent(t *testing.T) {
	l := BlockCyclic2D{R: 23, C: 19, Pr: 3, Pc: 2, Mb: 4, Nb: 3}
	for rank := 0; rank < l.Procs(); rank++ {
		r, c := l.LocalShape(rank)
		// Sum of piece areas must equal the local buffer area when the
		// pieces tile the local buffer exactly.
		area := 0
		for _, p := range l.Pieces(rank) {
			area += p.Rows * p.Cols
		}
		if area != r*c {
			t.Fatalf("rank %d: piece area %d != local %dx%d", rank, area, r, c)
		}
	}
}

func TestRenderSmall(t *testing.T) {
	l := Block2D{R: 4, C: 4, Pr: 2, Pc: 2}
	out := Render(l, 8)
	want := []string{"0011", "0011", "2233", "2233"}
	for _, row := range want {
		if !strings.Contains(out, row) {
			t.Fatalf("Render missing row %q:\n%s", row, out)
		}
	}
}

func TestRenderSampling(t *testing.T) {
	l := Block1DRow{R: 1000, C: 1000, P: 4}
	out := Render(l, 8)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) > 10 {
		t.Fatalf("sampled render too large: %d lines", len(lines))
	}
}

func TestRenderUnownedAndManyRanks(t *testing.T) {
	l := NewExplicit(2, 2, 70)
	l.SetBlock(40, 0, 0, 1, 2) // rank 40 -> letter symbol
	l.SetBlock(65, 1, 0, 1, 1) // rank 65 -> bracketed
	// (1,1) unowned
	out := Render(l, 4)
	if !strings.Contains(out, "e") || !strings.Contains(out, "[65]") || !strings.Contains(out, ".") {
		t.Fatalf("render symbols wrong:\n%s", out)
	}
}
