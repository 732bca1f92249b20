package main

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// syntheticRun builds set-ups and an op phase whose host times come from a
// fixed pseudo-random sequence, so a test can replay it under slowdowns.
func syntheticRun() ([]setupSample, *phase) {
	rng := rand.New(rand.NewSource(7))
	jitter := func(base time.Duration) time.Duration {
		return base + time.Duration(rng.Int63n(int64(base/10)))
	}
	var setups []setupSample
	for r := 0; r < 5; r++ {
		s := setupSample{}
		for i := 0; i < calibLead; i++ {
			s.kern = append(s.kern, jitter(300*time.Microsecond))
		}
		for i := 0; i < 40; i++ {
			s.kern = append(s.kern, jitter(300*time.Microsecond))
			s.steps = append(s.steps, jitter(2*time.Millisecond))
		}
		for i := 0; i < calibLead; i++ {
			s.kern = append(s.kern, jitter(300*time.Microsecond))
		}
		setups = append(setups, s)
	}
	ph := &phase{}
	for i := 0; i < 500; i++ {
		ph.ops = append(ph.ops, jitter(3*time.Millisecond))
		ph.kern = append(ph.kern, jitter(300*time.Microsecond))
		ph.work = append(ph.work, 0.1)
	}
	return setups, ph
}

// slow returns copies of the run with op and set-up step times scaled by
// opScale and the kernel samples over [from, to) of the op phase (and all
// of the set-ups) scaled by kernScale.
func slow(setups []setupSample, ph *phase, opScale, kernScale time.Duration, from, to int) ([]setupSample, *phase) {
	var outS []setupSample
	for _, s := range setups {
		c := setupSample{}
		for _, d := range s.steps {
			c.steps = append(c.steps, d*opScale)
		}
		for _, d := range s.kern {
			c.kern = append(c.kern, d*kernScale)
		}
		outS = append(outS, c)
	}
	out := &phase{work: ph.work}
	for i := range ph.ops {
		op, k := ph.ops[i], ph.kern[i]
		if i >= from && i < to {
			op, k = op*opScale, k*kernScale
		}
		out.ops = append(out.ops, op)
		out.kern = append(out.kern, k)
	}
	return outS, out
}

func metricsOf(setups []setupSample, ph *phase) map[string]float64 {
	return endToEnd(setups, ph, []float64{30, 31, 32}, 100, 0)
}

func assertRatio(t *testing.T, name string, got, want map[string]float64, ratio float64) {
	t.Helper()
	assertRatioWithin(t, name, got, want, ratio, 1e-9)
}

func assertRatioWithin(t *testing.T, name string, got, want map[string]float64, ratio, tol float64) {
	t.Helper()
	if r := got[name] / want[name]; math.Abs(r-ratio) > tol {
		t.Errorf("%s: %v vs %v, ratio %v, want %v", name, got[name], want[name], r, ratio)
	}
}

// A host that is uniformly slower slows the kernel exactly as much as the
// ops, so every calibrated metric reads the same.
func TestUniformSlowdownCancels(t *testing.T) {
	setups, ph := syntheticRun()
	base := metricsOf(setups, ph)
	s2, p2 := slow(setups, ph, 2, 2, 0, len(ph.ops))
	got := metricsOf(s2, p2)
	for _, m := range endToEndSpecs {
		assertRatio(t, m.name, got, base, 1)
	}
}

// A slowdown of the ops alone is a real regression and shows in full.
func TestOpSlowdownShows(t *testing.T) {
	setups, ph := syntheticRun()
	base := metricsOf(setups, ph)
	s2, p2 := slow(setups, ph, 2, 1, 0, len(ph.ops))
	got := metricsOf(s2, p2)
	for _, name := range []string{"setup_s", "op_ms_p50", "op_ms_p90"} {
		assertRatio(t, name, got, base, 2)
	}
	assertRatio(t, "work_per_s", got, base, 0.5)
	assertRatio(t, "heap_peak_mb", got, base, 1)
}

// The host changing speed part-way through a run is calibrated op by op,
// not averaged over the run: only the ops next to the two steps see a
// neighbour's sample, which moves the result by far less than the 3x step.
func TestSpeedStepWithinRunCancels(t *testing.T) {
	setups, ph := syntheticRun()
	base := metricsOf(setups, ph)
	_, p2 := slow(setups, ph, 3, 3, 200, 350)
	got := metricsOf(setups, p2)
	for _, name := range []string{"op_ms_p50", "op_ms_p90", "work_per_s"} {
		assertRatioWithin(t, name, got, base, 1, 1e-3)
	}
}

// One disturbed kernel sample (a GC pause, a preemption) cannot move the
// median-based estimate of any op by more than the spread of its
// undisturbed neighbours (here 10 %), let alone by the disturbance (10x).
func TestSingleDisturbedSampleIgnored(t *testing.T) {
	_, ph := syntheticRun()
	want := calibratedOps(ph)
	ph.kern[100] *= 10
	got := calibratedOps(ph)
	for i := range want {
		if r := got[i] / want[i]; r < 1/1.1 || r > 1.1 {
			t.Errorf("op %d: calibrated %v, undisturbed %v", i, got[i], want[i])
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]time.Duration{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// The kernel runs on several goroutines at once; each writes only its own
// lane and result slot.
func TestCalibratorParallel(t *testing.T) {
	c, err := newCalibrator(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range c.samples(70) {
		if d <= 0 {
			t.Fatalf("kernel sample %v", d)
		}
	}
	if c.lanes[0].off == 0 || c.lanes[1].off == 0 {
		t.Fatalf("lanes not written: %d, %d", c.lanes[0].off, c.lanes[1].off)
	}
}
