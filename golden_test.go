package ca3dmm

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// The golden hashes pin every algorithm's C across commits, not only
// across code paths: they were generated at the commit before all eight
// algorithms moved onto the one schedule executor, so a refactor that
// changes a GEMM shape, a panel boundary, or a reduction order anywhere
// in the stack fails here even if it stays self-consistent. Overlap on
// and off share one constant because the overlapped schedule never
// changes the accumulation order.

var goldenShapes = []struct {
	name    string
	m, n, k int
}{
	{"square", 96, 96, 96},
	{"tall-skinny", 192, 16, 16},
	{"k-dominant", 16, 16, 240},
	{"non-divisible", 37, 29, 31},
}

// goldenHashes maps "algorithm/shape" to the FNV-1a hash of C's float64
// bits (row-major), for p = 6 ranks (8 for CARMA), inputs Random(m,k,101)
// and Random(k,n,202).
var goldenHashes = map[string]uint64{
	"ca3dmm/square":          0x8a2b92013e1c9ce5,
	"ca3dmm/tall-skinny":     0xd07c0801d6466850,
	"ca3dmm/k-dominant":      0xd27601e9821c44b9,
	"ca3dmm/non-divisible":   0x49fad90e0308e605,
	"ca3dmm-s/square":        0x30daa115925e452f,
	"ca3dmm-s/tall-skinny":   0x0714e783aefcb8e6,
	"ca3dmm-s/k-dominant":    0xd27601e9821c44b9,
	"ca3dmm-s/non-divisible": 0x1f680cd3554dbe41,
	"cosma/square":           0xe9a6259a7a4fa9f2,
	"cosma/tall-skinny":      0xd07c0801d6466850,
	"cosma/k-dominant":       0xd27601e9821c44b9,
	"cosma/non-divisible":    0x49fad90e0308e605,
	"carma/square":           0x8a2b92013e1c9ce5,
	"carma/tall-skinny":      0x3b6ce4e1c35f5c67,
	"carma/k-dominant":       0xa738bafe6e2c1430,
	"carma/non-divisible":    0xfbc3ac91f98c59ae,
	"c25d/square":            0x8a2b92013e1c9ce5,
	"c25d/tall-skinny":       0xcc32c81e297d7582,
	"c25d/k-dominant":        0x32aaeb332d75564a,
	"c25d/non-divisible":     0x5fed75c3c36a7eda,
	"summa/square":           0x30daa115925e452f,
	"summa/tall-skinny":      0xc44fdb9e75b3e809,
	"summa/k-dominant":       0x0f49d53a9e69480c,
	"summa/non-divisible":    0x8bc2ccd6360c609f,
	"1d/square":              0x15c15b19b6635830,
	"1d/tall-skinny":         0x002958b1780f4a11,
	"1d/k-dominant":          0xc133e797060ac1d1,
	"1d/non-divisible":       0xf05b26b625b78570,
	"3d/square":              0xe9a6259a7a4fa9f2,
	"3d/tall-skinny":         0xd07c0801d6466850,
	"3d/k-dominant":          0xd27601e9821c44b9,
	"3d/non-divisible":       0x49fad90e0308e605,
}

func hashMatrix(c *Matrix) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < c.Rows; i++ {
		for j := 0; j < c.Cols; j++ {
			bits := math.Float64bits(c.At(i, j))
			for b := 0; b < 8; b++ {
				buf[b] = byte(bits >> (8 * b))
			}
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

func TestGoldenHashes(t *testing.T) {
	for _, alg := range Algorithms() {
		p := 6
		if alg == CARMA {
			p = 8 // power-of-two restriction
		}
		for _, sh := range goldenShapes {
			key := fmt.Sprintf("%s/%s", alg, sh.name)
			t.Run(key, func(t *testing.T) {
				a := Random(sh.m, sh.k, 101)
				b := Random(sh.k, sh.n, 202)
				for _, noOverlap := range []bool{false, true} {
					got, _, _, err := Multiply(a, b, p, Config{Algorithm: alg, NoOverlap: noOverlap})
					if err != nil {
						t.Fatal(err)
					}
					if h := hashMatrix(got); h != goldenHashes[key] {
						t.Errorf("NoOverlap=%v: hash %#016x, want %#016x", noOverlap, h, goldenHashes[key])
					}
				}
			})
		}
	}
}
