package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that still has at least
// ten samples beyond it, and its value. With fewer than 21 samples no
// percentile above the median qualifies, so the median is reported.
func tail(xs []float64) (pct, value float64) {
	n := len(xs)
	if n < 21 {
		return 50, median(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := n - 11
	return 100 * float64(idx+1) / float64(n), s[idx]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// calibBuf is larger than the last-level cache of the boxes this runs
// on, so the streaming half of the calibration loop reads memory. It is
// written once: pages never written all map to one zero page.
var calibBuf = func() []float64 {
	buf := make([]float64, 4<<20) // 32 MiB
	for i := range buf {
		buf[i] = float64(i)
	}
	return buf
}()

// calibrate runs the benchmark-owned reference loop on every processor
// at once — a dependent scalar multiply-add chain, then a streaming sum
// — and returns the best wall time of three tries. It calls nothing in
// the program, so a change to the program cannot move it: it measures
// the machine, and the block guard reads nothing else.
func calibrate() time.Duration {
	best := time.Duration(math.MaxInt64)
	for try := 0; try < 3; try++ {
		t0 := time.Now()
		var wg sync.WaitGroup
		for g := 0; g < runtime.GOMAXPROCS(0); g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				x := 1.0
				for i := 0; i < 20_000_000; i++ {
					x = x*0.999999 + 1e-6
				}
				s := 0.0
				for _, v := range calibBuf {
					s += v
				}
				calibSink.Store(math.Float64bits(x + s))
			}()
		}
		wg.Wait()
		best = min(best, time.Since(t0))
	}
	return best
}

var calibSink atomic.Uint64
