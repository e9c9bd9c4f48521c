package dist

import (
	"sync"
	"testing"

	"repro/internal/mat"
	"repro/internal/mpi"
)

// FuzzRedistribute drives the redistribution engine across fuzzed
// shapes, rank counts, and layout pairs, asserting the there-and-back
// identity.
func FuzzRedistribute(f *testing.F) {
	f.Add(uint8(10), uint8(7), uint8(3), uint8(0), uint8(1))
	f.Add(uint8(5), uint8(5), uint8(4), uint8(2), uint8(3))
	f.Fuzz(func(t *testing.T, rows8, cols8, p8, srcKind, dstKind uint8) {
		rows := 1 + int(rows8%24)
		cols := 1 + int(cols8%24)
		p := 1 + int(p8%6)
		mk := func(kind uint8) Layout {
			switch kind % 4 {
			case 0:
				return Block1DRow{R: rows, C: cols, P: p}
			case 1:
				return Block1DCol{R: rows, C: cols, P: p}
			case 2:
				pr := 1
				for pr*2 <= p {
					pr *= 2
				}
				return Block2D{R: rows, C: cols, Pr: pr, Pc: p / pr, P: p}
			default:
				return BlockCyclic2D{R: rows, C: cols, Pr: 1 + int(kind)%2, Pc: 1, Mb: 2, Nb: 3}
			}
		}
		src := mk(srcKind)
		dst := mk(dstKind)
		if src.Procs() != p || dst.Procs() != p {
			t.Skip()
		}
		if Validate(src) != nil || Validate(dst) != nil {
			t.Skip()
		}
		g := mat.Random(rows, cols, uint64(rows*31+cols))
		locals := Scatter(g, src)
		outs := make([]*mat.Dense, p)
		var mu sync.Mutex
		_, err := mpi.Run(p, func(c *mpi.Comm) {
			mid := redistribute(c, src, locals[c.Rank()], dst, false)
			back := redistribute(c, dst, mid, src, false)
			mu.Lock()
			outs[c.Rank()] = back
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		if !mat.Equal(Assemble(outs, src), g, 0) {
			t.Fatal("round trip lost data")
		}
	})
}
