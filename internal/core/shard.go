package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"plugvolt/internal/cpu"
	"plugvolt/internal/models"
	"plugvolt/internal/msr"
	"plugvolt/internal/sim"
	"plugvolt/internal/telemetry"
)

// RowSeed derives the private RNG seed for one frequency row of a sharded
// sweep: seed ^ freqKHz. Every row's stochastic realization (jitter coin
// flips, fault masks, crash points) is a pure function of the experiment
// seed and the row frequency — never of which worker swept the row or in
// what order — which is what makes the parallel sweep bit-for-bit equal to
// the single-worker one.
func RowSeed(seed int64, freqKHz int) int64 { return seed ^ int64(freqKHz) }

// ShardedCharacterizer runs Algorithm 2 with the frequency axis partitioned
// across N workers. Frequency rows are independent by construction (each
// row starts from offset 0 and stops at its own crash onset), so the grid
// is embarrassingly parallel; the engine preserves determinism by giving
// every row a private platform stack (simulator, cores, MSR files, PLLs,
// regulators, cpufreq) built from RowSeed and by merging finished rows by
// frequency index, not completion order.
type ShardedCharacterizer struct {
	// Factory builds the per-row platform stack. It is called concurrently
	// from every worker and must be safe for concurrent use (pure
	// constructors like the default cpu.FactoryFor(spec) are). Tests
	// substitute failing factories.
	Factory cpu.PlatformFactory

	spec *models.Spec
	seed int64
	cfg  CharacterizerConfig
}

// NewShardedCharacterizer validates the config against the spec.
func NewShardedCharacterizer(spec *models.Spec, seed int64, cfg CharacterizerConfig) (*ShardedCharacterizer, error) {
	if spec == nil {
		return nil, errors.New("core: nil spec")
	}
	if err := validateConfig(cfg, spec); err != nil {
		return nil, err
	}
	return &ShardedCharacterizer{
		Factory: cpu.FactoryFor(spec),
		spec:    spec,
		seed:    seed,
		cfg:     cfg,
	}, nil
}

// workers resolves the shard count: cfg.Workers, defaulting to GOMAXPROCS,
// capped at the row count (extra workers would only idle).
func (sc *ShardedCharacterizer) workers(rows int) int {
	w := sc.cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > rows {
		w = rows
	}
	return w
}

// rowResult carries one finished frequency row from a worker to the merge
// loop.
type rowResult struct {
	fi      int
	row     []Classification
	reboots int
	err     error
	// worker identifies the goroutine that classified the row; virtual is
	// the row platform's elapsed virtual time; probes counts the measured
	// sim probes spent on the row, and fallback reports that bisection
	// handed the row to a verified linear sweep. These feed telemetry only
	// — the merged grid never depends on them.
	worker   int
	virtual  sim.Duration
	probes   int
	fallback bool
}

// Run characterizes the grid: every row is located by onset bisection with
// its verified fallback to a linear sweep (see bisectRow). The result is
// byte-identical across worker counts and schedules for a given (spec,
// seed, config); see RowSeed for why.
func (sc *ShardedCharacterizer) Run() (*Grid, error) {
	return sc.run(sc.bisectRow, StrategyBisect)
}

// rowClassifier classifies one frequency row into row. memo is the
// calling worker's prediction memo, reused across the rows it classifies.
type rowClassifier func(memo *rowMemo, row []Classification, freqKHz int, offs []int) rowResult

// run classifies every frequency row into its len(offs)-cell window with
// classifyRow on the worker pool, fills in each result's fi, row and
// worker, and merges the rows by frequency index. strategy labels the
// search_* counters.
func (sc *ShardedCharacterizer) run(classifyRow rowClassifier, strategy string) (*Grid, error) {
	freqs := sc.spec.FreqTableKHz()
	offs := offsetAxis(sc.cfg)
	g := &Grid{
		Model:      sc.spec.Codename,
		Microcode:  sc.spec.Microcode,
		Seed:       sc.seed,
		Iterations: sc.cfg.Iterations,
		FreqsKHz:   freqs,
		OffsetsMV:  offs,
		Cells:      make([][]Classification, len(freqs)),
	}

	// One slab backs every row. Workers write disjoint [fi*len(offs),
	// (fi+1)*len(offs)) windows, so sharing the backing array is race-free
	// and the whole grid costs one allocation instead of one per row.
	cells := make([]Classification, len(freqs)*len(offs))

	jobs := make(chan int)
	results := make(chan rowResult)
	var wg sync.WaitGroup
	workers := sc.workers(len(freqs))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var memo rowMemo
			for fi := range jobs {
				row := cells[fi*len(offs) : (fi+1)*len(offs) : (fi+1)*len(offs)]
				r := classifyRow(&memo, row, freqs[fi], offs)
				r.fi, r.row, r.worker = fi, row, w
				results <- r
			}
		}(w)
	}
	go func() {
		for fi := range freqs {
			jobs <- fi
		}
		close(jobs)
	}()
	go func() {
		wg.Wait()
		close(results)
	}()

	// The merge loop is the only consumer of results, so progress callbacks
	// and telemetry updates are serialized here: rows may finish out of
	// order, but callbacks never run concurrently and rowsDone counts
	// completions monotonically.
	obs := newSweepObserver(sc.cfg.Telemetry, freqs, workers, strategy)
	var firstErr error
	done := 0
	for r := range results {
		if r.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("core: shard at %d kHz: %w", freqs[r.fi], r.err)
			}
			continue
		}
		mergeRow(g, r)
		done++
		obs.row(r)
		if sc.cfg.Progress != nil {
			sc.cfg.Progress(freqs[r.fi], done, len(freqs))
		}
	}
	obs.finish()
	if firstErr != nil {
		return nil, firstErr
	}
	return g, nil
}

// sweepObserver publishes sharded-sweep telemetry from the merge loop. A
// nil telemetry set yields an observer whose instruments are all nil-safe
// no-ops.
type sweepObserver struct {
	tel     *telemetry.Set
	freqs   []int
	rowsC   *telemetry.Counter
	rebootC *telemetry.Counter
	cellsC  [3]*telemetry.Counter // indexed by Classification
	wRows   []*telemetry.Counter
	wVirt   []*telemetry.Counter
	util    []*telemetry.Gauge
	rate    *telemetry.Gauge

	probesC   *telemetry.Counter
	onsetC    *telemetry.Counter
	fallbackC *telemetry.Counter

	rows         int
	totalVirtual sim.Duration
	workerVirt   []sim.Duration

	// early holds merged rows by frequency index; next is the index of the
	// first row whose journal event and span are still owed.
	early []*rowResult
	next  int
}

func newSweepObserver(tel *telemetry.Set, freqs []int, workers int, strategy string) *sweepObserver {
	o := &sweepObserver{tel: tel, freqs: freqs, workerVirt: make([]sim.Duration, workers)}
	if tel == nil {
		return o
	}
	o.early = make([]*rowResult, len(freqs))
	reg := tel.Registry()
	o.rowsC = reg.Counter("characterize_rows_total", "completed frequency rows", nil)
	o.rebootC = reg.Counter("characterize_reboots_total", "crash recoveries during the sweep", nil)
	lbl := telemetry.Labels{"strategy": strategy}
	o.probesC = reg.Counter("search_probes_total",
		"measured sim probes spent classifying frequency rows", lbl)
	o.onsetC = reg.Counter("search_onset_found",
		"frequency rows where an unsafe onset was located", lbl)
	o.fallbackC = reg.Counter("search_fallback_rows_total",
		"bisect rows that fell back to a verified linear sweep", lbl)
	for _, cls := range []Classification{Safe, Fault, Crash} {
		o.cellsC[cls] = reg.Counter("characterize_cells_total",
			"classified (frequency, offset) grid points",
			telemetry.Labels{"class": cls.String()})
	}
	o.wRows = make([]*telemetry.Counter, workers)
	o.wVirt = make([]*telemetry.Counter, workers)
	o.util = make([]*telemetry.Gauge, workers)
	for w := 0; w < workers; w++ {
		lbl := telemetry.Labels{"worker": fmt.Sprintf("%d", w)}
		o.wRows[w] = reg.Counter("characterize_worker_rows_total",
			"rows swept per worker (scheduler-dependent; varies run to run)", lbl)
		o.wVirt[w] = reg.Counter("characterize_worker_virtual_seconds_total",
			"virtual time swept per worker (scheduler-dependent)", lbl)
		o.util[w] = reg.Gauge("characterize_worker_utilization",
			"worker's share of total swept virtual time (scheduler-dependent)", lbl)
	}
	o.rate = reg.Gauge("characterize_rows_per_virtual_second",
		"sweep throughput: rows per virtual second of row-platform time", nil)
	return o
}

// row records one merged frequency row. Counters update on arrival; the
// row's journal event and span are emitted in frequency order, so a row
// that arrives ahead of a lower frequency waits in early.
func (o *sweepObserver) row(r rowResult) {
	o.rows++
	o.totalVirtual += r.virtual
	if r.worker < len(o.workerVirt) {
		o.workerVirt[r.worker] += r.virtual
	}
	if o.tel == nil {
		return
	}
	perClass := classCounts(r.row)
	o.rowsC.Inc()
	o.rebootC.Add(float64(r.reboots))
	o.probesC.Add(float64(r.probes))
	if perClass[Fault]+perClass[Crash] > 0 {
		o.onsetC.Inc()
	}
	if r.fallback {
		o.fallbackC.Inc()
	}
	for cls, n := range perClass {
		o.cellsC[cls].Add(float64(n))
	}
	o.wRows[r.worker].Inc()
	o.wVirt[r.worker].Add(telemetry.Seconds(r.virtual))
	o.early[r.fi] = &r
	for o.next < len(o.early) && o.early[o.next] != nil {
		o.emit(o.early[o.next])
		o.next++
	}
}

// emit journals one row and records its causal span. Neither names the
// worker, and both are emitted in frequency order, so the journal and the
// exported trace are byte-identical for any worker count and any merge
// arrival order — the worker attribution lives only in the explicitly
// scheduler-dependent metrics. The span's track is per-frequency and its
// duration is the row platform's own virtual time.
func (o *sweepObserver) emit(r *rowResult) {
	freqKHz := o.freqs[r.fi]
	perClass := classCounts(r.row)
	o.tel.Events().Emit("characterize_row", map[string]any{
		"freq_khz": freqKHz, "cells": len(r.row),
		"safe": perClass[Safe], "fault": perClass[Fault], "crash": perClass[Crash],
		"reboots": r.reboots, "virtual_ps": int64(r.virtual),
	})
	o.tel.Spans().Complete(fmt.Sprintf("characterize/%d", freqKHz), "row",
		0, r.virtual, map[string]any{
			"freq_khz": freqKHz, "cells": len(r.row),
			"safe": perClass[Safe], "fault": perClass[Fault], "crash": perClass[Crash],
			"reboots": r.reboots,
		})
}

// classCounts tallies a row's cells by classification.
func classCounts(row []Classification) [3]int {
	var n [3]int
	for _, c := range row {
		if int(c) < len(n) {
			n[c]++
		}
	}
	return n
}

// finish emits any rows still owed and publishes the end-of-sweep
// aggregates.
func (o *sweepObserver) finish() {
	if o.tel == nil {
		return
	}
	// Rows past a failed one are still owed.
	for _, r := range o.early[o.next:] {
		if r != nil {
			o.emit(r)
		}
	}
	if o.totalVirtual == 0 {
		return
	}
	o.rate.Set(float64(o.rows) / telemetry.Seconds(o.totalVirtual))
	for w, v := range o.workerVirt {
		o.util[w].Set(float64(v) / float64(o.totalVirtual))
	}
}

// mergeRow lands one finished row in the grid. Placement is by frequency
// index and the reboot count is a sum, so the merged grid is independent of
// arrival order.
func mergeRow(g *Grid, r rowResult) {
	g.Cells[r.fi] = r.row
	g.Reboots += r.reboots
}

// onRowPlatform runs classify under Algorithm 2's per-row protocol on a
// private platform stack: build the machine from the row seed, record the
// stock operating point, classify the row, and restore the stock frequency
// and zero offset. The platform is discarded afterwards, but the restore
// keeps the row protocol Algorithm 2's, and the reported virtual time
// includes it.
func (sc *ShardedCharacterizer) onRowPlatform(freqKHz int, classify func(*characterizer) error) rowResult {
	p, err := sc.Factory(RowSeed(sc.seed, freqKHz))
	if err != nil {
		return rowResult{err: err}
	}
	ch, err := newCharacterizer(p, sc.cfg)
	if err != nil {
		return rowResult{err: err}
	}
	// Algorithm 2 lines 6-7: record the normal operating point.
	origStatus, err := p.MSRFile(sc.cfg.VictimCore).Read(msr.IA32PerfStatus)
	if err != nil {
		return rowResult{err: err}
	}
	origRatio, _ := msr.DecodePerfStatus(origStatus)
	if err := classify(ch); err != nil {
		return rowResult{probes: ch.probes, err: err}
	}
	// Lines 13-14: restore the stock frequency and zero offset.
	if err := ch.restore(msr.RatioToKHz(origRatio, p.Spec.BusMHz)); err != nil {
		return rowResult{err: err}
	}
	return rowResult{reboots: p.Reboots, virtual: sim.Duration(p.Sim.Now()), probes: ch.probes}
}

// sweepRow characterizes one frequency by measuring every cell up to the
// first crash: Algorithm 2 as written. It is bisection's fallback and the
// engine's test oracle, and reads no predictions.
func (sc *ShardedCharacterizer) sweepRow(_ *rowMemo, row []Classification, freqKHz int, offs []int) rowResult {
	return sc.onRowPlatform(freqKHz, func(ch *characterizer) error {
		return ch.sweepRowInto(row, freqKHz, offs)
	})
}
