package main

import (
	"math"
	"time"
)

// metricSpec names one reported metric. The tables below are the source of
// truth for BENCHMARK.json's end_to_end and per_layer lists; a test keeps
// the two in step.
type metricSpec struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

var endToEndSpecs = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms_p50", "ms", "lower", 0.15},
	{"op_ms_p90", "ms", "lower", 0.25},
	{"work_per_s", "work/s", "higher", 0.2},
	{"heap_peak_mb", "MB", "lower", 0.15},
	{"pass_pct", "%", "higher", 0.01},
}

var selfCPUModules = []string{
	"sim", "timing", "cpu", "msr", "kernel", "power", "core", "telemetry",
	"span", "flight", "victim", "fleet", "other", "harness", "runtime_bg",
}

var perLayerSpecs = func() []metricSpec {
	s := []metricSpec{
		{name: "sim.events_per_op", unit: "count", better: "lower"},
		{name: "sim.host_ns_per_event", unit: "ns", better: "lower"},
		{name: "cpu.boot_ms", unit: "ms", better: "lower"},
		{name: "cpu.reboots_per_grid", unit: "count", better: "lower"},
		{name: "core.characterize_ms", unit: "ms", better: "lower"},
		{name: "core.probes_per_grid", unit: "count", better: "lower"},
		{name: "core.cells_per_probe", unit: "count", better: "higher"},
		{name: "core.fallback_rows", unit: "count", better: "lower"},
		{name: "guard.deploy_ms", unit: "ms", better: "lower"},
		{name: "guard.checks_per_op", unit: "count", better: "higher"},
		{name: "guard.interventions_per_op", unit: "count", better: "higher"},
		{name: "guard.host_ns_per_check", unit: "ns", better: "lower"},
		{name: "guard.closure_ratio", unit: "ratio", better: "higher"},
		{name: "kernel.stolen_us_per_op", unit: "us", better: "lower"},
		{name: "kernel.intervention_us_per_op", unit: "us", better: "lower"},
		{name: "kernel.guard_stolen_pct", unit: "%", better: "lower"},
		{name: "power.guard_uj_per_op", unit: "uJ", better: "lower"},
		{name: "power.pkg_mj_per_op", unit: "mJ", better: "lower"},
		{name: "attack.writes_per_op", unit: "count", better: "higher"},
		{name: "attack.write_us", unit: "us", better: "lower"},
		{name: "victim.batch_ms", unit: "ms", better: "lower"},
		{name: "victim.faults", unit: "count", better: "lower"},
		{name: "span.dropped_per_op", unit: "count", better: "lower"},
		{name: "telemetry.journal_dropped_per_op", unit: "count", better: "lower"},
		{name: "flight.records_per_op", unit: "count", better: "lower"},
		{name: "fleet.heap_mb_per_batch", unit: "MB", better: "lower"},
		{name: "fleet.errors", unit: "count", better: "lower"},
		{name: "host.allocs_per_op", unit: "count", better: "lower"},
		{name: "host.alloc_kb_per_op", unit: "KiB", better: "lower"},
		{name: "host.gc_per_s", unit: "1/s", better: "lower"},
		{name: "host.calib_ms", unit: "ms", better: "lower"},
		{name: "host.raw_op_ms_p50", unit: "ms", better: "lower"},
	}
	for _, m := range selfCPUModules {
		s = append(s, metricSpec{name: "self_cpu." + m, unit: "%", better: "lower"})
	}
	return append(s, metricSpec{name: "trace.overhead_pct", unit: "%", better: "lower"})
}()

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// calibratedOps returns each op's calibrated duration in seconds.
func calibratedOps(ph *phase) []float64 {
	f := localFactors(ph.kern)
	out := make([]float64, len(ph.ops))
	for i, d := range ph.ops {
		out[i] = d.Seconds() * f[i]
	}
	return out
}

// workPerS is the work_per_s of a phase.
func workPerS(ph *phase) float64 {
	return quantile(perBlock(calibratedOps(ph), ph.work, cappedThroughput), 0.5)
}

// maxBlocks and minBlockOps shape the op statistics: a run's ops are cut
// into up to maxBlocks consecutive blocks of at least minBlockOps (so a
// block's p90 has ten ops beyond it) and each statistic is taken per
// block. The median over blocks is reported for op_ms_p50 and work_per_s,
// so a burst of host noise over less than half the run cannot move them.
// For op_ms_p90 the best block is reported: interference from the rest of
// a shared host only ever adds time, it inflates the tail most, and it
// comes in bursts the interleaved kernel samples do not always catch, so
// the least disturbed block is the closest measure of the program's own
// tail. On the 2-vCPU host this was tuned on, during a noisy hour, that cut
// the run-to-run spread of guard-steady's op_ms_p90 from 12.7 % (median of
// 5 blocks) to 3.5 %.
const (
	maxBlocks   = 10
	minBlockOps = 100
)

// perBlock applies stat to each block of ops.
func perBlock(ops, work []float64, stat func(ops, work []float64) float64) []float64 {
	n := len(ops) / minBlockOps
	if n > maxBlocks {
		n = maxBlocks
	}
	if n < 1 {
		n = 1
	}
	vals := make([]float64, n)
	for b := range vals {
		lo, hi := b*len(ops)/n, (b+1)*len(ops)/n
		vals[b] = stat(ops[lo:hi], work[lo:hi])
	}
	return vals
}

// cappedThroughput is work per calibrated second with each op's time
// capped at the block's p90: a burst of host noise counts as a slow op, not
// as however long the burst lasted.
func cappedThroughput(ops, work []float64) float64 {
	limit := quantile(ops, 0.9)
	total, done := 0.0, 0.0
	for i, s := range ops {
		total += math.Min(s, limit)
		done += work[i]
	}
	if total == 0 {
		return 0
	}
	return done / total
}

// heapPeakQuantile turns the live-heap samples into heap_peak_mb: the
// level the live heap reaches in its top 5 % of samples. The plain maximum
// depends on where one GC happened to land in a batch's life and moved by
// 15 % between runs of the same code.
const heapPeakQuantile = 0.95

// endToEnd computes the end-to-end metrics from one run's raw samples.
func endToEnd(setups []setupSample, ph *phase, heapMB []float64, attempted, failed int) map[string]float64 {
	setup := make([]float64, len(setups))
	for i, s := range setups {
		setup[i] = s.calibrated()
	}
	ops := calibratedOps(ph)
	pass := 100.0
	if attempted > 0 {
		pass = 100 * float64(attempted-failed) / float64(attempted)
	}
	pct := func(q float64) func(ops, _ []float64) float64 {
		return func(ops, _ []float64) float64 { return quantile(ops, q) * 1e3 }
	}
	return map[string]float64{
		"setup_s":      quantile(setup, 0.5),
		"op_ms_p50":    quantile(perBlock(ops, ph.work, pct(0.5)), 0.5),
		"op_ms_p90":    quantile(perBlock(ops, ph.work, pct(0.9)), 0),
		"work_per_s":   workPerS(ph),
		"heap_peak_mb": quantile(heapMB, heapPeakQuantile),
		"pass_pct":     pass,
	}
}

// layerCtx carries what the per-layer metrics are computed from: counter
// deltas over every measured op, the untraced phase's calibrated op time
// and counter deltas, the host-time laps and the run's calibration factor.
type layerCtx struct {
	ops       float64
	d         map[string]float64
	untracedS float64
	untracedD map[string]float64
	f         float64
	h         *harness
}

func (c *layerCtx) perOp(name string) float64 {
	if c.ops == 0 {
		return 0
	}
	return c.d[name] / c.ops
}

// hostNsPer is calibrated host nanoseconds of op time per unit of the named
// counter, over the untraced phase.
func (c *layerCtx) hostNsPer(name string) float64 {
	if n := c.untracedD[name]; n > 0 {
		return c.untracedS * 1e9 / n
	}
	return 0
}

// lapMS is the calibrated mean host time of one call of the named kind, in
// milliseconds.
func (c *layerCtx) lapMS(name string) float64 {
	return float64(c.h.lapMean(name)) / float64(time.Millisecond) * c.f
}

// deltas subtracts two counter snapshots.
func deltas(from, to map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(to))
	for k, v := range to {
		d[k] = v - from[k]
	}
	return d
}
