package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Host-time calibration.
//
// On a shared virtual machine the effective core speed drifts by tens of
// percent between processes (and within one), with no steal time to show
// for it, so a raw wall-clock time is a poor measurement. Every host-time
// metric is therefore normalised against a fixed calibration kernel that
// runs interleaved with the measured work:
//
//	calibrated = raw × kernelNominal / estimate(kernel duration)
//
// The estimate is a median over nearby kernel samples, so a GC cycle or a
// preemption that lands in one sample cannot move it. The kernel imports
// nothing from plugvolt: no change to the program can make it faster.
//
// The kernel does arithmetic and then streams writes through memory. The
// arithmetic alone tracks a host that runs slower, but not neighbours that
// contend for caches and memory bandwidth, which slow the allocation-heavy
// workloads far more than a loop that lives in L1. Measured in the same
// runs on the tuning host, adding the writes cut the run-to-run spread of
// fleet-stream's op_ms_p90 from 21.6 % to 14.0 % and of guard-attack's from
// 14.2 % to 10.1 %, at a cost of a few points on guard-steady's op_ms_p50.

const (
	// kernelNominal is the kernel duration every host time is scaled to.
	// kernelIters and kernelWrites are sized so one pass takes about that
	// long on a 2.1 GHz Xeon core; the exact match does not matter, only
	// that it is fixed.
	kernelNominal = 500 * time.Microsecond
	kernelIters   = 6000
	// kernelWrites 8-byte words are written per pass, sequentially through
	// a laneWords buffer per goroutine, so each pass writes memory that has
	// left the core's private caches since it was last touched.
	kernelWrites = 64 << 10
	laneWords    = 64 * kernelWrites
	// calibWindow is how many kernel samples on each side of an op feed
	// its local median estimate: the sample before the op and the one
	// after it, plus the one before that, so a single disturbed sample
	// cannot move the estimate.
	calibWindow = 1
	// calibLead kernel samples open and close every set-up.
	calibLead = 3
)

// lane is one goroutine's share of the kernel: its write buffer, mapped
// outside the Go heap so it shows in no heap metric, and the position the
// next pass writes at.
type lane struct {
	buf []uint64
	off int
}

// kernelPass runs the calibration kernel once: an allocation-free
// xorshift stream fed through math.Erfc, the same mix of integer and
// transcendental floating-point work the simulator's timing model does,
// then kernelWrites sequential stores into the lane.
func (l *lane) kernelPass(seed uint64) float64 {
	x := seed | 1
	acc := 0.0
	for i := 0; i < kernelIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += math.Erfc(float64(x>>11)*0x1p-53*6 - 3)
	}
	if l.off+kernelWrites > len(l.buf) {
		l.off = 0
	}
	w := l.buf[l.off : l.off+kernelWrites]
	for i := range w {
		w[i] = x + uint64(i)
	}
	l.off += kernelWrites
	return acc + float64(w[len(w)-1]&1)
}

// calibrator times kernel passes on a fixed number of goroutines: one for
// single-threaded workloads, GOMAXPROCS for the parallel ones, so the
// kernel sees the same share of the host the workload does.
type calibrator struct {
	par     int
	seed    uint64
	lanes   []lane
	results []float64
	sink    float64
}

// newCalibrator maps one write buffer per goroutine. The mappings live as
// long as the process.
func newCalibrator(par int) (*calibrator, error) {
	if par < 1 {
		par = 1
	}
	c := &calibrator{par: par, lanes: make([]lane, par), results: make([]float64, par)}
	for i := range c.lanes {
		mem, err := syscall.Mmap(-1, 0, laneWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return nil, fmt.Errorf("calibration buffer: %w", err)
		}
		c.lanes[i].buf = unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), laneWords)
	}
	return c, nil
}

// sample runs one kernel pass per goroutine and returns the wall time until
// the last one finished.
func (c *calibrator) sample() time.Duration {
	c.seed++
	start := time.Now()
	if c.par == 1 {
		c.sink += c.lanes[0].kernelPass(c.seed)
		return time.Since(start)
	}
	var wg sync.WaitGroup
	for g := 1; g < c.par; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c.results[g] = c.lanes[g].kernelPass(c.seed*31 + uint64(g))
		}(g)
	}
	c.results[0] = c.lanes[0].kernelPass(c.seed * 31)
	wg.Wait()
	d := time.Since(start)
	for _, r := range c.results {
		c.sink += r
	}
	return d
}

// samples takes n kernel samples.
func (c *calibrator) samples(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = c.sample()
	}
	return out
}

// factor converts a robust kernel estimate into the multiplier applied to
// raw host times.
func factor(kern []time.Duration) float64 {
	est := median(kern)
	if est <= 0 {
		return 1
	}
	return float64(kernelNominal) / est
}

// localFactors gives each op the factor of the median of the kernel samples
// within calibWindow of it. kern[i] is the sample taken just before op i.
func localFactors(kern []time.Duration) []float64 {
	out := make([]float64, len(kern))
	for i := range kern {
		lo, hi := i-calibWindow, i+calibWindow+1
		if lo < 0 {
			lo = 0
		}
		if hi > len(kern) {
			hi = len(kern)
		}
		out[i] = factor(kern[lo:hi])
	}
	return out
}

// median is the median of ds in nanoseconds.
func median(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return quantile(xs, 0.5)
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
