package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"plugvolt/internal/sim"
	"plugvolt/internal/telemetry/span"
)

// minOps is the fewest ops a measured phase holds, so that op_ms_p90 has at
// least ten samples beyond it.
const minOps = 100

// setupSample is one timed set-up. Its steps are calibrated piecewise:
// the host can change speed within a set-up, so every step is preceded by
// a kernel sample, and calibLead more samples lead and trail the whole.
type setupSample struct {
	steps []time.Duration
	kern  []time.Duration // lead samples, one per step, trail samples
}

// calibrated is the set-up's calibrated duration in seconds.
func (s setupSample) calibrated() float64 {
	f := localFactors(s.kern)
	total := 0.0
	for i, d := range s.steps {
		total += d.Seconds() * f[calibLead+i]
	}
	return total
}

// phase is the raw record of one measured phase: per op, its duration, the
// kernel sample taken just before it and the work it completed.
type phase struct {
	ops  []time.Duration
	kern []time.Duration
	work []float64
}

// lap accumulates host time spent in one kind of call into a layer.
type lap struct {
	sum time.Duration
	n   int
}

// harness is the state shared by the workloads and the measurement loop.
type harness struct {
	seed int64
	cal  *calibrator
	// tr records harness spans on the wall clock during the traced phase;
	// nil otherwise (every span method is nil-safe).
	tr     *span.Tracer
	t0     time.Time
	laps   map[string]*lap
	frozen bool

	setups []setupSample
	// cur is the set-up in progress, nil outside set-up.
	cur       *setupSample
	heapMB    []float64 // live heap after set-up and after every op
	attempted int
	failed    int
	failures  []string

	heapSample []metrics.Sample
}

func newHarness(seed int64, par int) (*harness, error) {
	cal, err := newCalibrator(par)
	if err != nil {
		return nil, err
	}
	return &harness{
		seed: seed,
		cal:  cal,
		t0:   time.Now(),
		laps: map[string]*lap{},
		heapSample: []metrics.Sample{
			{Name: "/gc/heap/live:bytes"},
		},
	}, nil
}

// wallClock stamps harness spans with host time since the harness started.
func (h *harness) wallClock() sim.Time {
	return sim.Time(time.Since(h.t0)) * sim.Nanosecond
}

// addLap records d against a layer call, unless the per-layer figures have
// been frozen (they come from the untraced phase only).
func (h *harness) addLap(name string, d time.Duration) {
	if h.frozen {
		return
	}
	l := h.laps[name]
	if l == nil {
		l = &lap{}
		h.laps[name] = l
	}
	l.sum += d
	l.n++
}

// lapMean is the mean raw host time of one call of the named kind.
func (h *harness) lapMean(name string) time.Duration {
	l := h.laps[name]
	if l == nil || l.n == 0 {
		return 0
	}
	return l.sum / time.Duration(l.n)
}

// timed runs fn inside a harness span and records its host time as a lap.
// During set-up it is also one calibrated set-up step.
func (h *harness) timed(name string, fn func() error) error {
	if h.cur != nil {
		h.cur.kern = append(h.cur.kern, h.cal.sample())
	}
	sp := h.tr.Start("harness", name, nil)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	sp.End()
	h.addLap(name, d)
	if h.cur != nil {
		h.cur.steps = append(h.cur.steps, d)
	}
	return err
}

// sampleHeap records the live heap as of the last GC.
func (h *harness) sampleHeap() {
	metrics.Read(h.heapSample)
	if v := h.heapSample[0].Value; v.Kind() == metrics.KindUint64 {
		h.heapMB = append(h.heapMB, float64(v.Uint64())/(1<<20))
	}
}

// check counts one correctness gate; a non-nil err marks it failed.
func (h *harness) check(err error) {
	h.attempted++
	if err == nil {
		return
	}
	h.failed++
	if len(h.failures) < 8 {
		h.failures = append(h.failures, err.Error())
	}
}

// A run sets its workload up at least minSetups times, and keeps going
// until setupBudget of set-up time has passed or maxSetups is reached, so
// short set-ups get more repetitions; setup_s is the median of their
// calibrated times.
const (
	minSetups   = 5
	maxSetups   = 25
	setupBudget = 2 * time.Second
)

// runSetups sets the workload up repeatedly, each time from a collected
// heap, and leaves the last set-up in place for the ops. A set-up's time is
// the sum of the steps the workload runs through timed.
func (h *harness) runSetups(w workload) error {
	start := time.Now()
	for i := 0; i < minSetups || (i < maxSetups && time.Since(start) < setupBudget); i++ {
		runtime.GC()
		h.cur = &setupSample{kern: h.cal.samples(calibLead)}
		root := h.tr.StartRoot("harness", "setup", map[string]any{"rep": i})
		err := w.setup(h)
		root.End()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		h.cur.kern = append(h.cur.kern, h.cal.samples(calibLead)...)
		h.setups = append(h.setups, *h.cur)
		h.cur = nil
	}
	runtime.GC()
	h.sampleHeap()
	return nil
}

// recorder times the ops of one phase.
type recorder struct {
	h        *harness
	ph       *phase
	deadline time.Time
	start    time.Time
	open     bool
	root     *span.Active
	opName   string
}

func (h *harness) newRecorder(opName string, d time.Duration) *recorder {
	return &recorder{h: h, ph: &phase{}, deadline: time.Now().Add(d), opName: opName}
}

// more reports whether the phase wants another op.
func (r *recorder) more() bool {
	return len(r.ph.ops) < minOps || time.Now().Before(r.deadline)
}

// begin takes the op's kernel sample and starts its clock.
func (r *recorder) begin() {
	r.ph.kern = append(r.ph.kern, r.h.cal.sample())
	if r.h.tr != nil {
		r.root = r.h.tr.StartRoot("harness", r.opName, map[string]any{"op": len(r.ph.ops)})
	}
	r.open = true
	r.start = time.Now()
}

// end stops the op's clock and records the work it completed.
func (r *recorder) end(work float64) {
	d := time.Since(r.start)
	r.root.End()
	r.open = false
	r.ph.ops = append(r.ph.ops, d)
	r.ph.work = append(r.ph.work, work)
	r.h.sampleHeap()
}

// logf writes a diagnostic line to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
