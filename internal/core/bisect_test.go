package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"testing"

	"plugvolt/internal/cpu"
	"plugvolt/internal/models"
	"plugvolt/internal/msr"
	"plugvolt/internal/search"
	"plugvolt/internal/sim"
	"plugvolt/internal/telemetry"
)

// searchCounts is what one run's search_* counters recorded.
type searchCounts struct{ rows, probes, fallback, onset int }

// sweepOracle characterizes with the linear sweep on every row: Algorithm 2
// as written, the reference the engine must reproduce.
func (sc *ShardedCharacterizer) sweepOracle() (*Grid, error) {
	return sc.run(sc.sweepRow, StrategySweep)
}

// characterizeCounted runs sc (the engine, or with oracle set the sweep
// oracle) into a fresh telemetry set and returns the grid JSON with the
// search_* counters the run published.
func characterizeCounted(t testing.TB, sc *ShardedCharacterizer, oracle bool) ([]byte, searchCounts) {
	t.Helper()
	tel := telemetry.NewSet(func() sim.Time { return 0 }, 64, 1)
	sc.cfg.Telemetry = tel
	run, strategy := sc.Run, StrategyBisect
	if oracle {
		run, strategy = sc.sweepOracle, StrategySweep
	}
	g, err := run()
	if err != nil {
		t.Fatal(err)
	}
	data, err := g.JSON()
	if err != nil {
		t.Fatal(err)
	}
	reg := tel.Registry()
	lbl := telemetry.Labels{"strategy": strategy}
	count := func(name string, lbl telemetry.Labels) int {
		return int(reg.Counter(name, "", lbl).Value())
	}
	return data, searchCounts{
		rows:     count("characterize_rows_total", nil),
		probes:   count("search_probes_total", lbl),
		fallback: count("search_fallback_rows_total", lbl),
		onset:    count("search_onset_found", lbl),
	}
}

// runEngine characterizes a model at seed 42 with the given worker count on
// the engine, or with oracle set on the sweep oracle.
func runEngine(t testing.TB, model string, oracle bool, workers int, cfg CharacterizerConfig) ([]byte, searchCounts) {
	t.Helper()
	c := cfg
	c.Workers = workers
	return characterizeCounted(t, newShardedCharacterizer(t, model, 42, c), oracle)
}

// TestBisectMatchesSweepAllGoldenSpecs is the engine's equivalence claim:
// for every golden model spec and for 1/2/8 workers, the engine's grid is
// byte-identical to the sweep oracle's, with zero fallback rows and
// strictly fewer measured probes.
func TestBisectMatchesSweepAllGoldenSpecs(t *testing.T) {
	cfg := quickSweepConfig()
	for _, model := range []string{"skylake", "kabylaker", "cometlake"} {
		model := model
		t.Run(model, func(t *testing.T) {
			sweepJSON, sweep := runEngine(t, model, true, 1, cfg)
			for _, workers := range []int{1, 2, 8} {
				bisectJSON, bisect := runEngine(t, model, false, workers, cfg)
				if string(sweepJSON) != string(bisectJSON) {
					t.Fatalf("workers=%d: bisect grid diverges from sweep", workers)
				}
				if bisect.fallback != 0 {
					t.Fatalf("workers=%d: %d unexpected fallback rows", workers, bisect.fallback)
				}
				if bisect.probes >= sweep.probes {
					t.Fatalf("workers=%d: bisect spent %d probes, sweep %d",
						workers, bisect.probes, sweep.probes)
				}
				if workers == 1 {
					t.Logf("sweep %d probes, bisect %d (%.1fx fewer)", sweep.probes,
						bisect.probes, float64(sweep.probes)/float64(bisect.probes))
				}
			}
		})
	}
}

// TestBisectProbeSavingsPaperConfig asserts the acceptance bar on the
// Fig. 2 configuration (paper-resolution offset axis, 1 mV steps): the
// engine must spend at least 10x fewer measured sim probes than the sweep
// oracle while producing the identical grid.
func TestBisectProbeSavingsPaperConfig(t *testing.T) {
	cfg := DefaultCharacterizerConfig()
	sweepJSON, sweep := runEngine(t, "skylake", true, 8, cfg)
	bisectJSON, bisect := runEngine(t, "skylake", false, 8, cfg)
	if string(sweepJSON) != string(bisectJSON) {
		t.Fatal("bisect grid diverges from sweep on the Fig. 2 configuration")
	}
	if bisect.fallback != 0 {
		t.Fatalf("%d unexpected fallback rows", bisect.fallback)
	}
	if bisect.probes*10 > sweep.probes {
		t.Fatalf("bisect spent %d probes vs sweep %d: less than the required 10x saving",
			bisect.probes, sweep.probes)
	}
	t.Logf("sweep %d probes, bisect %d probes (%.1fx fewer)",
		sweep.probes, bisect.probes, float64(sweep.probes)/float64(bisect.probes))
}

// TestRowClassificationMonotone is the property bisection relies on: for
// every model spec, every frequency row's measured classification sequence
// is Safe* Fault* Crash* — never a regression to a safer class at a deeper
// offset.
func TestRowClassificationMonotone(t *testing.T) {
	specs, err := models.All()
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickSweepConfig()
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Codename, func(t *testing.T) {
			sc, err := NewShardedCharacterizer(spec, 42, cfg)
			if err != nil {
				t.Fatal(err)
			}
			g, err := sc.Run()
			if err != nil {
				t.Fatal(err)
			}
			for fi, row := range g.Cells {
				for i := 1; i < len(row); i++ {
					if row[i] < row[i-1] {
						t.Fatalf("row %d kHz regresses from %s to %s at %d mV",
							g.FreqsKHz[fi], row[i-1], row[i], g.OffsetsMV[i])
					}
				}
			}
		})
	}
}

// FuzzRowMonotonicity fuzzes the analytic half of the bisect contract:
// for arbitrary seeds and any golden spec, the predicted batch upset
// probabilities must be non-decreasing in undervolt depth on every
// frequency row, and the coupled classification derived from them must
// therefore be monotone. This is the invariant whose violation would send
// bisect rows to the linear fallback.
func FuzzRowMonotonicity(f *testing.F) {
	f.Add(int64(42), uint8(0), uint8(0))
	f.Add(int64(-7), uint8(1), uint8(3))
	f.Add(int64(1<<40), uint8(2), uint8(7))
	specs, err := models.All()
	if err != nil {
		f.Fatal(err)
	}
	cfg := quickSweepConfig()
	offs := offsetAxis(cfg)
	f.Fuzz(func(t *testing.T, seed int64, specIdx, freqIdx uint8) {
		spec := specs[int(specIdx)%len(specs)]
		freqs := spec.FreqTableKHz()
		freqKHz := freqs[int(freqIdx)%len(freqs)]
		p, err := cpu.FactoryFor(spec)(RowSeed(seed, freqKHz))
		if err != nil {
			t.Fatal(err)
		}
		ch, err := newCharacterizer(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := ch.cp.FrequencySet(cfg.VictimCore, freqKHz); err != nil {
			t.Fatal(err)
		}
		core := p.Core(cfg.VictimCore)
		uF, uC := ch.probeU(freqKHz)
		prevF, prevC := -1.0, -1.0
		prevCls := Safe
		for _, off := range offs {
			pf, pc := core.PredictProbabilities(ch.class(), off)
			pAnyF := cpu.BatchUpsetProbability(cfg.Iterations, pf)
			pAnyC := cpu.BatchUpsetProbability(cfg.Iterations, pc)
			if pAnyF < prevF || pAnyC < prevC {
				t.Fatalf("seed %d %s %d kHz: predicted upset probability regresses at %d mV",
					seed, spec.Codename, freqKHz, off)
			}
			cls := classifyCoupled(pAnyF, pAnyC, uF, uC)
			if cls < prevCls {
				t.Fatalf("seed %d %s %d kHz: coupled class regresses from %s to %s at %d mV",
					seed, spec.Codename, freqKHz, prevCls, cls, off)
			}
			prevF, prevC, prevCls = pAnyF, pAnyC, cls
		}
	})
}

// TestSearchTelemetryCounters asserts the probe-economics counters land in
// the Prometheus exposition labelled by strategy, with the onset count
// agreeing with the grid itself.
func TestSearchTelemetryCounters(t *testing.T) {
	cfg := quickSweepConfig()
	cfg.Workers = 2
	tel := telemetry.NewSet(func() sim.Time { return 0 }, 64, 1)
	cfg.Telemetry = tel
	sc := newShardedCharacterizer(t, "skylake", 42, cfg)
	g, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	onsetRows := 0
	for _, row := range g.Cells {
		if row[len(row)-1] != Safe {
			onsetRows++
		}
	}
	if onsetRows == 0 {
		t.Fatal("no onset rows found on skylake")
	}
	probes := tel.Registry().Counter("search_probes_total", "",
		telemetry.Labels{"strategy": StrategyBisect}).Value()
	if probes <= 0 || probes >= float64(len(g.FreqsKHz)*len(g.OffsetsMV)) {
		t.Fatalf("search_probes_total %v outside (0, cells)", probes)
	}
	var buf bytes.Buffer
	if err := tel.Registry().Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exp := buf.String()
	for _, want := range []string{
		fmt.Sprintf(`search_probes_total{strategy="bisect"} %d`, int(probes)),
		fmt.Sprintf(`search_onset_found{strategy="bisect"} %d`, onsetRows),
		`search_fallback_rows_total{strategy="bisect"} 0`,
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
}

// hookedFactory wraps a platform factory so every built platform gets an
// OC-mailbox write hook on the victim core that rewrites voltage-offset
// commands per rewrite: interference bisection must detect.
func hookedFactory(base cpu.PlatformFactory, victim int, rewrite func(offsetMV int) (int, bool)) cpu.PlatformFactory {
	return func(seed int64) (*cpu.Platform, error) {
		p, err := base(seed)
		if err != nil {
			return nil, err
		}
		p.MSRFile(victim).AddWriteHook(msr.OCMailbox, func(_ *msr.File, _, proposed uint64) (uint64, error) {
			d := msr.DecodeVoltageOffset(proposed)
			if !d.Busy || !d.Write || d.Plane != msr.PlaneCore {
				return proposed, nil
			}
			mv := int(msr.UnitsToMV(d.OffsetUnits))
			if nv, ok := rewrite(mv); ok {
				return msr.EncodeVoltageOffset(nv, msr.PlaneCore), nil
			}
			return proposed, nil
		})
		return p, nil
	}
}

// TestBisectFallbackOnBrokenMonotonicity breaks the measured-vs-predicted
// contract with MSR write hooks that intercept mailbox commands, and
// asserts (a) the engine detects the contradiction at a probed cell and
// falls back to the linear scan, and (b) the fallback grid is
// byte-identical to what the sweep oracle measures under the same hook.
// The hooks here interfere on bands that overlap the verified boundary
// probes — the detection contract bisection actually offers (interference
// confined to never-probed interior cells is invisible to any O(log N)
// scheme by construction).
func TestBisectFallbackOnBrokenMonotonicity(t *testing.T) {
	cfg := quickSweepConfig()
	cases := []struct {
		name    string
		rewrite func(offsetMV int) (int, bool)
	}{
		// Clamp everything deeper than -60 mV to -60 mV: every predicted
		// onset vanishes, so the onset-region probes measure Safe where
		// Fault/Crash was predicted.
		{"deep writes clamped safe", func(mv int) (int, bool) {
			if mv < -60 {
				return -60, true
			}
			return 0, false
		}},
		// Rewrite the -100..-200 mV band to -80 mV: rows whose fault or
		// crash boundary lands in the band measure differently than
		// predicted exactly at the boundary probes.
		{"onset band displaced", func(mv int) (int, bool) {
			if mv <= -100 && mv >= -200 {
				return -80, true
			}
			return 0, false
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			run := func(oracle bool) ([]byte, searchCounts) {
				c := cfg
				c.Workers = 4
				sc := newShardedCharacterizer(t, "skylake", 42, c)
				sc.Factory = hookedFactory(sc.Factory, cfg.VictimCore, tc.rewrite)
				return characterizeCounted(t, sc, oracle)
			}
			sweepJSON, _ := runEngine(t, "skylake", true, 1, cfg)
			hookedSweepJSON, _ := run(true)
			if string(sweepJSON) == string(hookedSweepJSON) {
				t.Fatal("hook had no observable effect; the case proves nothing")
			}
			hookedBisectJSON, bisect := run(false)
			if bisect.fallback == 0 {
				t.Fatal("bisect never fell back despite broken monotonicity")
			}
			if string(hookedBisectJSON) != string(hookedSweepJSON) {
				t.Fatal("fallback grid diverges from the hooked sweep grid")
			}
			t.Logf("%d/%d rows fell back", bisect.fallback, bisect.rows)
		})
	}
}

// BenchmarkBisectVsSweep measures the engine against the sweep oracle at
// the Fig. 2 resolution (identical grid, fewer measured probes), reported
// as probes/op so plugvolt-bench can gate it.
func BenchmarkBisectVsSweep(b *testing.B) {
	for _, tc := range []struct {
		name   string
		oracle bool
	}{{StrategySweep, true}, {StrategyBisect, false}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, n := runEngine(b, "skylake", tc.oracle, 8, DefaultCharacterizerConfig())
				if n.onset == 0 {
					b.Fatal("no unsafe regions found")
				}
				if n.fallback != 0 {
					b.Fatalf("%d fallback rows", n.fallback)
				}
				b.ReportMetric(float64(n.probes), "probes/op")
			}
		})
	}
}

// TestLazyPredictionMatchesFullScan checks the lazy prediction protocol
// against the full per-cell prediction scan it replaced, on every shipped
// model, every frequency row, every instruction class and eight row seeds
// along the paper's -1..-300 mV axis. The full scan's batch probabilities
// must be non-decreasing in depth; the bisected row must equal the fully
// predicted row, so its first Crash cell is the scan's predC and its first
// non-Safe cell the scan's predicted onset; bisecting the predicted onset
// over the memo must evaluate nothing new; every memoized probability must
// equal the scan's bit for bit; and the row must evaluate at most
// 2⌈log₂N⌉+4 predictions.
func TestLazyPredictionMatchesFullScan(t *testing.T) {
	specs, err := models.All()
	if err != nil {
		t.Fatal(err)
	}
	base := DefaultCharacterizerConfig()
	offs := offsetAxis(base)
	n := len(offs)
	maxEvals := 2*bits.Len(uint(n-1)) + 4 // 2⌈log₂N⌉+4
	seeds := []int64{1, 2, 3, 42, -7, 1 << 40, 0x5eed, 987654321}
	var rows, evals int
	for _, spec := range specs {
		classes := make([]string, 0, len(spec.Depths))
		for class := range spec.Depths {
			classes = append(classes, class)
		}
		sort.Strings(classes)
		for _, class := range classes {
			cfg := base
			cfg.Class = cpu.Class(class)
			for _, seed := range seeds {
				sc, err := NewShardedCharacterizer(spec, seed, cfg)
				if err != nil {
					t.Fatal(err)
				}
				var memo rowMemo
				row := make([]Classification, n)
				for _, freqKHz := range spec.FreqTableKHz() {
					where := fmt.Sprintf("%s %s seed %d %d kHz", spec.Codename, class, seed, freqKHz)
					r := sc.bisectRow(&memo, row, freqKHz, offs)
					if r.err != nil || r.fallback {
						t.Fatalf("%s: err %v, fallback %v", where, r.err, r.fallback)
					}
					pAnyF, pAnyC, want := fullPredictionScan(t, sc, freqKHz, offs)
					for i := 1; i < n; i++ {
						if pAnyF[i] < pAnyF[i-1] || pAnyC[i] < pAnyC[i-1] {
							t.Fatalf("%s: full scan regresses at %d mV", where, offs[i])
						}
					}
					for i := range row {
						if row[i] != want[i] {
							t.Fatalf("%s: cell %d mV is %s, full scan predicts %s", where, offs[i], row[i], want[i])
						}
					}
					predC := firstIndex(want, func(c Classification) bool { return c == Crash })
					before := memo.n
					onset, _, err := search.BisectFirst(predC, func(i int) (bool, error) {
						cls, err := memo.predicted(i)
						return cls != Safe, err
					})
					if err != nil {
						t.Fatal(err)
					}
					if wantOnset := firstIndex(want, func(c Classification) bool { return c != Safe }); onset != wantOnset {
						t.Fatalf("%s: lazy predicted onset %d, full scan %d", where, onset, wantOnset)
					}
					if memo.n != before {
						t.Fatalf("%s: predicted onset read %d cells the row never predicted", where, memo.n-before)
					}
					for _, e := range memo.cells[:memo.n] {
						if math.Float64bits(e.pAnyF) != math.Float64bits(pAnyF[e.i]) ||
							math.Float64bits(e.pAnyC) != math.Float64bits(pAnyC[e.i]) {
							t.Fatalf("%s: memo at %d mV (%v, %v) != full scan (%v, %v)", where,
								offs[e.i], e.pAnyF, e.pAnyC, pAnyF[e.i], pAnyC[e.i])
						}
					}
					if memo.n > maxEvals {
						t.Fatalf("%s: %d predictions, bound %d", where, memo.n, maxEvals)
					}
					rows++
					evals += memo.n
				}
			}
		}
	}
	t.Logf("%d rows: %.1f predictions per row against %d for the full scan", rows, float64(evals)/float64(rows), n)
}

// fullPredictionScan predicts every cell of a row on a fresh row platform,
// the per-cell scan the memo replaced, and classifies each against the
// row's probe thresholds.
func fullPredictionScan(t *testing.T, sc *ShardedCharacterizer, freqKHz int, offs []int) (pAnyF, pAnyC []float64, cls []Classification) {
	t.Helper()
	p, err := sc.Factory(RowSeed(sc.seed, freqKHz))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := newCharacterizer(p, sc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.pinRow(freqKHz); err != nil {
		t.Fatal(err)
	}
	core := p.Core(sc.cfg.VictimCore)
	for _, off := range offs {
		pf, pc := core.PredictProbabilities(ch.class(), off)
		f := cpu.BatchUpsetProbability(sc.cfg.Iterations, pf)
		c := cpu.BatchUpsetProbability(sc.cfg.Iterations, pc)
		pAnyF, pAnyC = append(pAnyF, f), append(pAnyC, c)
		cls = append(cls, classifyCoupled(f, c, ch.uFault, ch.uCrash))
	}
	return pAnyF, pAnyC, cls
}

// firstIndex returns the first index of row satisfying pred, or len(row).
func firstIndex(row []Classification, pred func(Classification) bool) int {
	for i, c := range row {
		if pred(c) {
			return i
		}
	}
	return len(row)
}

// TestRowMemoRejectsOutOfOrderPrediction checks the ordering check that
// replaced the per-cell regression scan: a new prediction below a
// shallower memoized one, or above a deeper one, must abort the row with
// search.ErrNonMonotone, which sends it to the verified sweep fallback.
func TestRowMemoRejectsOutOfOrderPrediction(t *testing.T) {
	spec, err := models.ByName("skylake")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultCharacterizerConfig()
	offs := offsetAxis(cfg)
	freqs := spec.FreqTableKHz()
	freqKHz := freqs[len(freqs)-1] // deep cells of the top row predict upsets
	p, err := cpu.FactoryFor(spec)(RowSeed(42, freqKHz))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := newCharacterizer(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.pinRow(freqKHz); err != nil {
		t.Fatal(err)
	}
	core := p.Core(cfg.VictimCore)
	for _, tc := range []struct {
		name  string
		fake  cellMemo
		probe int
	}{
		{"shallower cell predicted higher", cellMemo{i: 0, pAnyF: 1, pAnyC: 1}, 1},
		{"deeper cell predicted lower", cellMemo{i: len(offs) - 1}, len(offs) - 2},
	} {
		var memo rowMemo
		memo.reset(core, ch.class(), cfg.Iterations, ch.uFault, ch.uCrash, offs)
		if _, err := memo.cell(tc.probe); err != nil {
			t.Fatalf("%s: honest prediction rejected: %v", tc.name, err)
		}
		memo.reset(core, ch.class(), cfg.Iterations, ch.uFault, ch.uCrash, offs)
		memo.cells[0], memo.n = tc.fake, 1
		if _, err := memo.cell(tc.probe); !errors.Is(err, search.ErrNonMonotone) {
			t.Fatalf("%s: got %v, want ErrNonMonotone", tc.name, err)
		}
	}
}
