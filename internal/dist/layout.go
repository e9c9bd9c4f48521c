// Package dist describes how global matrices are partitioned over
// process ranks and converts matrices between such layouts.
//
// CA3DMM (like CARMA and COSMA) has library-native matrix
// distributions that applications rarely use directly, so input
// matrices must be redistributed from the caller's layout to the
// algorithm's layout before the multiplication and the result
// redistributed back afterwards (steps 4 and 8 of Algorithm 1 in the
// paper). This package provides the standard application layouts (1D
// row/column blocks, 2D blocks, 2D block-cyclic) plus an explicit
// layout type the algorithms use to describe their native
// distributions, and an MPI_Neighbor_alltoallv-style redistribution
// engine between any two layouts.
package dist

import "fmt"

// Piece is one contiguous rectangle of the global matrix owned by a
// rank, together with its placement inside the rank's local buffer.
type Piece struct {
	R0, C0     int // global position of the rectangle's top-left corner
	Rows, Cols int // rectangle extent
	LR, LC     int // top-left corner inside the owner's local buffer
}

// Layout describes a partition of a GlobalRows x GlobalCols matrix
// over Procs ranks. Every element belongs to exactly one rank; a rank
// may own zero, one, or many pieces (block-cyclic layouts own many).
type Layout interface {
	GlobalRows() int
	GlobalCols() int
	Procs() int
	// Pieces returns the global rectangles owned by rank, with local
	// placements. The returned slice must not be modified.
	Pieces(rank int) []Piece
	// LocalShape returns the dense local buffer shape of rank.
	LocalShape(rank int) (rows, cols int)
}

// BlockRange splits n items over p parts and returns the half-open
// range [lo, hi) of part i. Parts differ in size by at most one.
func BlockRange(n, p, i int) (lo, hi int) {
	return i * n / p, (i + 1) * n / p
}

// ZeroIf returns v, or zero when gate is zero. Planners size one extent
// of a block with it so that a block empty in the other extent is
// recorded fully empty (0 x 0), which keeps layout validation honest.
func ZeroIf(v, gate int) int {
	if gate == 0 {
		return 0
	}
	return v
}

// Block1DRow partitions rows into P balanced contiguous blocks; rank i
// owns rows [i*R/P, (i+1)*R/P).
type Block1DRow struct {
	R, C, P int
}

// GlobalRows implements Layout.
func (l Block1DRow) GlobalRows() int { return l.R }

// GlobalCols implements Layout.
func (l Block1DRow) GlobalCols() int { return l.C }

// Procs implements Layout.
func (l Block1DRow) Procs() int { return l.P }

// Pieces implements Layout.
func (l Block1DRow) Pieces(rank int) []Piece {
	lo, hi := BlockRange(l.R, l.P, rank)
	if hi == lo {
		return nil
	}
	return []Piece{{R0: lo, C0: 0, Rows: hi - lo, Cols: l.C}}
}

// LocalShape implements Layout.
func (l Block1DRow) LocalShape(rank int) (int, int) {
	lo, hi := BlockRange(l.R, l.P, rank)
	return hi - lo, l.C
}

// Block1DCol partitions columns into P balanced contiguous blocks.
// This is the layout of the paper's example driver program ("The
// example program uses a 1D column partition for the input A and B
// matrices and the output C matrix") and the "custom layout" of
// Figure 3.
type Block1DCol struct {
	R, C, P int
}

// GlobalRows implements Layout.
func (l Block1DCol) GlobalRows() int { return l.R }

// GlobalCols implements Layout.
func (l Block1DCol) GlobalCols() int { return l.C }

// Procs implements Layout.
func (l Block1DCol) Procs() int { return l.P }

// Pieces implements Layout.
func (l Block1DCol) Pieces(rank int) []Piece {
	lo, hi := BlockRange(l.C, l.P, rank)
	if hi == lo {
		return nil
	}
	return []Piece{{R0: 0, C0: lo, Rows: l.R, Cols: hi - lo}}
}

// LocalShape implements Layout.
func (l Block1DCol) LocalShape(rank int) (int, int) {
	lo, hi := BlockRange(l.C, l.P, rank)
	return l.R, hi - lo
}

// Block2D partitions the matrix into Pr x Pc balanced blocks; rank
// r*Pc+c (row-major rank order) owns block (r, c). Ranks beyond Pr*Pc
// own nothing.
type Block2D struct {
	R, C   int
	Pr, Pc int
	P      int // total ranks (>= Pr*Pc); extras own nothing
}

// GlobalRows implements Layout.
func (l Block2D) GlobalRows() int { return l.R }

// GlobalCols implements Layout.
func (l Block2D) GlobalCols() int { return l.C }

// Procs implements Layout.
func (l Block2D) Procs() int {
	if l.P > 0 {
		return l.P
	}
	return l.Pr * l.Pc
}

// Pieces implements Layout.
func (l Block2D) Pieces(rank int) []Piece {
	if rank >= l.Pr*l.Pc {
		return nil
	}
	r, c := rank/l.Pc, rank%l.Pc
	rlo, rhi := BlockRange(l.R, l.Pr, r)
	clo, chi := BlockRange(l.C, l.Pc, c)
	if rhi == rlo || chi == clo {
		return nil
	}
	return []Piece{{R0: rlo, C0: clo, Rows: rhi - rlo, Cols: chi - clo}}
}

// LocalShape implements Layout.
func (l Block2D) LocalShape(rank int) (int, int) {
	if rank >= l.Pr*l.Pc {
		return 0, 0
	}
	r, c := rank/l.Pc, rank%l.Pc
	rlo, rhi := BlockRange(l.R, l.Pr, r)
	clo, chi := BlockRange(l.C, l.Pc, c)
	return rhi - rlo, chi - clo
}

// BlockCyclic2D is the ScaLAPACK-style 2D block-cyclic layout: tiles
// of Mb x Nb elements are dealt round-robin to a Pr x Pc grid
// (row-major rank order).
type BlockCyclic2D struct {
	R, C   int
	Pr, Pc int
	Mb, Nb int
}

// GlobalRows implements Layout.
func (l BlockCyclic2D) GlobalRows() int { return l.R }

// GlobalCols implements Layout.
func (l BlockCyclic2D) GlobalCols() int { return l.C }

// Procs implements Layout.
func (l BlockCyclic2D) Procs() int { return l.Pr * l.Pc }

func (l BlockCyclic2D) validate() {
	if l.Mb <= 0 || l.Nb <= 0 || l.Pr <= 0 || l.Pc <= 0 {
		panic(fmt.Sprintf("dist: invalid block-cyclic layout %+v", l))
	}
}

// localRowCount returns how many global rows land on grid row r.
func (l BlockCyclic2D) localRowCount(r int) int {
	count := 0
	for b0 := r * l.Mb; b0 < l.R; b0 += l.Pr * l.Mb {
		hi := b0 + l.Mb
		if hi > l.R {
			hi = l.R
		}
		count += hi - b0
	}
	return count
}

func (l BlockCyclic2D) localColCount(c int) int {
	count := 0
	for b0 := c * l.Nb; b0 < l.C; b0 += l.Pc * l.Nb {
		hi := b0 + l.Nb
		if hi > l.C {
			hi = l.C
		}
		count += hi - b0
	}
	return count
}

// Pieces implements Layout.
func (l BlockCyclic2D) Pieces(rank int) []Piece {
	l.validate()
	if rank >= l.Pr*l.Pc {
		return nil
	}
	r, c := rank/l.Pc, rank%l.Pc
	var pieces []Piece
	lr := 0
	for r0 := r * l.Mb; r0 < l.R; r0 += l.Pr * l.Mb {
		rhi := r0 + l.Mb
		if rhi > l.R {
			rhi = l.R
		}
		lc := 0
		for c0 := c * l.Nb; c0 < l.C; c0 += l.Pc * l.Nb {
			chi := c0 + l.Nb
			if chi > l.C {
				chi = l.C
			}
			pieces = append(pieces, Piece{
				R0: r0, C0: c0, Rows: rhi - r0, Cols: chi - c0,
				LR: lr, LC: lc,
			})
			lc += chi - c0
		}
		lr += rhi - r0
	}
	return pieces
}

// LocalShape implements Layout.
func (l BlockCyclic2D) LocalShape(rank int) (int, int) {
	l.validate()
	if rank >= l.Pr*l.Pc {
		return 0, 0
	}
	r, c := rank/l.Pc, rank%l.Pc
	return l.localRowCount(r), l.localColCount(c)
}

// Explicit is a layout given by explicit per-rank piece lists. The
// distributed algorithms use it to describe their native matrix
// distributions (which, as the paper notes, "are usually unable to map
// to a natural row-major or column-major 2D process grid").
type Explicit struct {
	R, C      int
	PieceList [][]Piece // indexed by rank
	Shapes    [][2]int  // local buffer shape per rank
}

// NewExplicit returns an empty explicit layout for p ranks.
func NewExplicit(rows, cols, p int) *Explicit {
	return &Explicit{
		R: rows, C: cols,
		PieceList: make([][]Piece, p),
		Shapes:    make([][2]int, p),
	}
}

// SetBlock assigns rank a single contiguous block with a dedicated
// local buffer of the same shape.
func (l *Explicit) SetBlock(rank, r0, c0, rows, cols int) {
	if rows == 0 || cols == 0 {
		l.PieceList[rank] = nil
		l.Shapes[rank] = [2]int{rows, cols}
		return
	}
	l.PieceList[rank] = []Piece{{R0: r0, C0: c0, Rows: rows, Cols: cols}}
	l.Shapes[rank] = [2]int{rows, cols}
}

// GlobalRows implements Layout.
func (l *Explicit) GlobalRows() int { return l.R }

// GlobalCols implements Layout.
func (l *Explicit) GlobalCols() int { return l.C }

// Procs implements Layout.
func (l *Explicit) Procs() int { return len(l.PieceList) }

// Pieces implements Layout.
func (l *Explicit) Pieces(rank int) []Piece { return l.PieceList[rank] }

// LocalShape implements Layout.
func (l *Explicit) LocalShape(rank int) (int, int) {
	s := l.Shapes[rank]
	return s[0], s[1]
}

// Validate checks that a layout tiles the global matrix exactly: every
// element is covered exactly once and every piece fits its local
// buffer. Intended for tests and algorithm debugging; O(R*C) work.
func Validate(l Layout) error {
	r, c := l.GlobalRows(), l.GlobalCols()
	seen := make([]int8, r*c)
	for rank := 0; rank < l.Procs(); rank++ {
		lr, lc := l.LocalShape(rank)
		for _, p := range l.Pieces(rank) {
			if p.R0 < 0 || p.C0 < 0 || p.R0+p.Rows > r || p.C0+p.Cols > c {
				return fmt.Errorf("dist: rank %d piece %+v out of global bounds %dx%d", rank, p, r, c)
			}
			if p.LR < 0 || p.LC < 0 || p.LR+p.Rows > lr || p.LC+p.Cols > lc {
				return fmt.Errorf("dist: rank %d piece %+v exceeds local shape %dx%d", rank, p, lr, lc)
			}
			for i := p.R0; i < p.R0+p.Rows; i++ {
				for j := p.C0; j < p.C0+p.Cols; j++ {
					if seen[i*c+j] != 0 {
						return fmt.Errorf("dist: element (%d,%d) covered twice", i, j)
					}
					seen[i*c+j] = 1
				}
			}
		}
	}
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if seen[i*c+j] == 0 {
				return fmt.Errorf("dist: element (%d,%d) not covered", i, j)
			}
		}
	}
	return nil
}
