// Command perfbench is plugvolt's benchmark: one workload per invocation,
// closed-loop, generated from --seed, with every host time calibrated
// against a fixed kernel (see calib.go). It prints the metrics by name and
// unit, then one JSON result line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1
// splits the time between an untraced and a traced phase (harness spans
// plus a CPU profile) and reports the per-layer metrics; the trace files
// land in .bench_build/perfbench. Run it from the repository root through
// perfbench/run.sh, which builds it.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"

	"plugvolt"
)

// workload is one benchmark workload. setup runs several times, each from
// scratch, timed through harness.timed steps; measure runs closed-loop ops
// through rec until it says the phase is over; counters are cumulative
// deterministic counts the per-layer metrics take deltas of.
type workload interface {
	par() int
	opName() string
	setup(h *harness) error
	measure(h *harness, rec *recorder) error
	counters() map[string]float64
	layers(c *layerCtx, out map[string]float64)
	digest() uint64
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "characterize":
		return &characterizeWL{}, nil
	case "guard-steady":
		return &guardWL{}, nil
	case "guard-attack":
		return &guardWL{attack: true}, nil
	case "fleet-stream":
		return &fleetWL{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want characterize, guard-steady, guard-attack or fleet-stream)", name)
}

// goldenFigures are the quick grids at seed 42 checked in under artifacts/.
var goldenFigures = []struct{ model, file string }{
	{"skylake", "artifacts/fig2_skylake.json"},
	{"kabylaker", "artifacts/fig3_kabylaker.json"},
	{"cometlake", "artifacts/fig4_cometlake.json"},
}

// checkGoldens re-derives the Figs. 2–4 quick grids and compares them byte
// for byte with the repository's artifacts. A missing artifact is an error
// (the benchmark is not running in a checkout); a mismatch is a failed
// gate.
func checkGoldens(h *harness) error {
	for _, fig := range goldenFigures {
		want, err := os.ReadFile(fig.file)
		if err != nil {
			return err
		}
		sys, err := plugvolt.NewSystem(fig.model, 42)
		if err != nil {
			return err
		}
		g, err := sys.Characterize(plugvolt.QuickSweep())
		if err != nil {
			return err
		}
		got, err := g.JSON()
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			h.check(fmt.Errorf("%s: quick grid at seed 42 differs from %s", fig.model, fig.file))
			continue
		}
		h.check(nil)
	}
	return nil
}

// hostCounters reads the runtime's cumulative allocation and GC counters.
func hostCounters() map[string]float64 {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return map[string]float64{
		"host.allocs": float64(s[0].Value.Uint64()),
		"host.bytes":  float64(s[1].Value.Uint64()),
		"host.gc":     float64(s[2].Value.Uint64()),
	}
}

func snapshot(w workload) map[string]float64 {
	c := w.counters()
	for k, v := range hostCounters() {
		c[k] = v
	}
	return c
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "characterize, guard-steady, guard-attack or fleet-stream")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 10, "measured seconds")
		trace   = flag.Int("trace", 0, "1 = also run a traced phase and report per-layer metrics")
		outDir  = flag.String("out", ".bench_build/perfbench", "directory for trace files")
	)
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *outDir); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, dur time.Duration, traced bool, outDir string) error {
	w, err := newWorkload(name)
	if err != nil {
		return err
	}
	h, err := newHarness(seed, w.par())
	if err != nil {
		return err
	}
	if err := checkGoldens(h); err != nil {
		return fmt.Errorf("golden gate: %w", err)
	}
	if err := h.runSetups(w); err != nil {
		return err
	}
	if fw, ok := w.(*fleetWL); ok {
		if err := fw.probe(h); err != nil {
			return fmt.Errorf("probe: %w", err)
		}
	}

	phaseDur := dur
	if traced {
		phaseDur = dur / 2
	}
	c0 := snapshot(w)
	untraced := h.newRecorder(w.opName(), phaseDur)
	if err := w.measure(h, untraced); err != nil {
		return err
	}
	c1 := snapshot(w)
	cEnd := c1

	res := result{Metrics: map[string]metric{}}
	if !traced {
		e2e := endToEnd(h.setups, untraced.ph, h.heapMB, h.attempted, h.failed)
		for _, m := range endToEndSpecs {
			res.Metrics[m.name] = metric{e2e[m.name], m.unit}
		}
	} else {
		h.frozen = true
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		base := fmt.Sprintf("%s-seed%d", name, seed)
		tracedRec := h.newRecorder(w.opName(), phaseDur)
		self, err := tracedPhase(h, outDir, base, func() error { return w.measure(h, tracedRec) })
		if err != nil {
			return fmt.Errorf("traced phase: %w", err)
		}
		cEnd = snapshot(w)
		layers := perLayer(w, h, untraced.ph, tracedRec.ph, c0, c1, cEnd, self)
		for _, m := range perLayerSpecs {
			res.Metrics[m.name] = metric{layers[m.name], m.unit}
		}
		fmt.Printf("trace files: %s\n", filepath.Join(outDir, base+".{trace.json,folded,cpu.pprof}"))
	}

	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", k, m.Value)
		}
	}
	res.Attempted, res.Failed = h.attempted, h.failed
	res.Correct = h.failed == 0
	for _, f := range h.failures {
		logf("gate failed: %s", f)
	}
	printReport(name, seed, w, h, untraced.ph, res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// perLayer computes every per-layer metric; those a workload does not
// exercise stay 0.
func perLayer(w workload, h *harness, untraced, traced *phase, c0, c1, cEnd map[string]float64, self map[string]float64) map[string]float64 {
	kern := append(append([]time.Duration(nil), untraced.kern...), traced.kern...)
	for _, s := range h.setups {
		kern = append(kern, s.kern...)
	}
	untracedS := 0.0
	for _, s := range calibratedOps(untraced) {
		untracedS += s
	}
	ctx := &layerCtx{
		ops:       float64(len(untraced.ops) + len(traced.ops)),
		d:         deltas(c0, cEnd),
		untracedS: untracedS,
		untracedD: deltas(c0, c1),
		f:         factor(kern),
		h:         h,
	}
	out := map[string]float64{}
	for _, m := range perLayerSpecs {
		out[m.name] = 0
	}
	w.layers(ctx, out)
	out["host.allocs_per_op"] = ctx.perOp("host.allocs")
	out["host.alloc_kb_per_op"] = ctx.perOp("host.bytes") / 1024
	if untracedS > 0 {
		out["host.gc_per_s"] = ctx.untracedD["host.gc"] / untracedS
	}
	out["host.calib_ms"] = median(kern) / float64(time.Millisecond)
	raw := make([]float64, len(untraced.ops))
	for i, d := range untraced.ops {
		raw[i] = d.Seconds() * 1e3
	}
	out["host.raw_op_ms_p50"] = quantile(raw, 0.5)
	for m, share := range self {
		out["self_cpu."+m] = share
	}
	if base := workPerS(untraced); base > 0 {
		out["trace.overhead_pct"] = 100 * (1 - workPerS(traced)/base)
	}
	return out
}

// printReport writes the human-readable summary that precedes the result
// line.
func printReport(name string, seed int64, w workload, h *harness, ph *phase, res result) {
	fmt.Printf("workload %s seed %d: %d ops, %d setups, %d/%d gates passed\n",
		name, seed, len(ph.ops), len(h.setups), res.Attempted-res.Failed, res.Attempted)
	fmt.Printf("digest %s %016x\n", name, w.digest())
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-34s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
}
