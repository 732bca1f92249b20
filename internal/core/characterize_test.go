package core

import (
	"math"
	"testing"

	"plugvolt/internal/cpu"
	"plugvolt/internal/models"
	"plugvolt/internal/msr"
)

func newPlatform(t *testing.T, model string, seed int64) *cpu.Platform {
	t.Helper()
	spec, err := models.ByName(model)
	if err != nil {
		t.Fatal(err)
	}
	p, err := cpu.NewPlatform(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// quickSweepConfig is a coarser, faster variant of the paper's sweep for
// unit tests (5 mV steps, 200k iterations).
func quickSweepConfig() CharacterizerConfig {
	cfg := DefaultCharacterizerConfig()
	cfg.Iterations = 200_000
	cfg.OffsetStartMV = -5
	cfg.OffsetStepMV = -5
	cfg.OffsetEndMV = -350
	return cfg
}

func TestCharacterizerValidation(t *testing.T) {
	spec, err := models.ByName("skylake")
	if err != nil {
		t.Fatal(err)
	}
	if err := validateConfig(DefaultCharacterizerConfig(), spec); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	bad := DefaultCharacterizerConfig()
	bad.VictimCore = bad.DriverCore
	if validateConfig(bad, spec) == nil {
		t.Fatal("same victim/driver accepted")
	}
	bad = DefaultCharacterizerConfig()
	bad.VictimCore = 99
	if validateConfig(bad, spec) == nil {
		t.Fatal("bogus victim core accepted")
	}
	bad = DefaultCharacterizerConfig()
	bad.Iterations = 0
	if validateConfig(bad, spec) == nil {
		t.Fatal("zero iterations accepted")
	}
	bad = DefaultCharacterizerConfig()
	bad.OffsetStepMV = 1
	if validateConfig(bad, spec) == nil {
		t.Fatal("positive step accepted")
	}
	bad = DefaultCharacterizerConfig()
	bad.OffsetStartMV = 5
	if validateConfig(bad, spec) == nil {
		t.Fatal("positive start accepted")
	}
	bad = DefaultCharacterizerConfig()
	bad.OffsetEndMV = -1
	bad.OffsetStartMV = -100
	if validateConfig(bad, spec) == nil {
		t.Fatal("inverted range accepted")
	}
	// An unknown class must fail validation: Run would otherwise panic on
	// the missing timing path inside a worker goroutine.
	bad = DefaultCharacterizerConfig()
	bad.Class = "bogus"
	if validateConfig(bad, spec) == nil {
		t.Fatal("unknown instruction class accepted")
	}
}

// characterizeGrid runs the engine on a model at a seed.
func characterizeGrid(t testing.TB, model string, seed int64, cfg CharacterizerConfig) *Grid {
	t.Helper()
	g, err := newShardedCharacterizer(t, model, seed, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCharacterizationSweepSkyLake(t *testing.T) {
	var progressRows int
	cfg := quickSweepConfig()
	cfg.Progress = func(freqKHz, done, total int) { progressRows = done }
	g := characterizeGrid(t, "skylake", 42, cfg)
	if err := g.Validate(); err != nil {
		t.Fatalf("sweep produced invalid grid: %v", err)
	}
	if g.Model != "Sky Lake" || g.Microcode != "0xf0" {
		t.Fatalf("grid identity: %s / %s", g.Model, g.Microcode)
	}
	if progressRows != len(g.FreqsKHz) {
		t.Fatalf("progress rows %d", progressRows)
	}
	if len(g.FreqsKHz) != 29 {
		t.Fatalf("frequency rows %d, want 29 (0.8..3.6 GHz at 0.1)", len(g.FreqsKHz))
	}

	for fi, f := range g.FreqsKHz {
		row := g.Cells[fi]
		// Shallow end must be safe; deep end must not be.
		if row[0] != Safe {
			t.Errorf("%d kHz: -5 mV not safe", f)
		}
		onset, ok := g.OnsetMV(f)
		if !ok {
			t.Errorf("%d kHz: entire sweep safe — no unsafe region found", f)
			continue
		}
		crash, ok := g.CrashMV(f)
		if !ok {
			t.Errorf("%d kHz: no crash within sweep", f)
			continue
		}
		if onset <= crash {
			t.Errorf("%d kHz: onset %d not shallower than crash %d", f, onset, crash)
		}
		// A fault band (unsafe but running) exists: the attacker's window.
		if g.FaultBandWidthMV(f) <= 0 {
			t.Errorf("%d kHz: no fault band", f)
		}
	}

	// Shape claim of Fig. 2: onset magnitude at the top frequency is
	// well below the bottom frequency's.
	onLow, _ := g.OnsetMV(g.FreqsKHz[0])
	onHigh, _ := g.OnsetMV(g.FreqsKHz[len(g.FreqsKHz)-1])
	if onHigh <= onLow+20 {
		t.Errorf("onset did not shrink with frequency: %d mV at fmin, %d mV at fmax", onLow, onHigh)
	}

	// The sweep crossed crash boundaries, so reboots must be recorded.
	if g.Reboots == 0 {
		t.Error("no reboots despite crash cells")
	}

	// Maximal safe state is safe everywhere, per definition.
	msv := g.MaximalSafeOffsetMV(0)
	if msv >= 0 {
		t.Fatalf("maximal safe state %d not an undervolt", msv)
	}
	for _, f := range g.FreqsKHz {
		if cl, ok := g.At(f, msv); !ok || cl != Safe {
			t.Fatalf("maximal safe %d mV not safe at %d kHz (%v)", msv, f, cl)
		}
	}
}

func TestCharacterizationDeterministicReplay(t *testing.T) {
	run := func() *Grid {
		cfg := quickSweepConfig()
		cfg.OffsetEndMV = -200 // shorter for speed
		return characterizeGrid(t, "skylake", 77, cfg)
	}
	g1, g2 := run(), run()
	for fi := range g1.Cells {
		for oi := range g1.Cells[fi] {
			if g1.Cells[fi][oi] != g2.Cells[fi][oi] {
				t.Fatalf("replay diverged at cell (%d, %d)", fi, oi)
			}
		}
	}
}

func TestCharacterizationAllThreeModels(t *testing.T) {
	// The paper characterizes three generations; each must produce a
	// structurally sane grid (Figs. 2, 3, 4).
	if testing.Short() {
		t.Skip("full tri-model sweep in -short mode")
	}
	for _, model := range []string{"skylake", "kabylaker", "cometlake"} {
		model := model
		t.Run(model, func(t *testing.T) {
			g := characterizeGrid(t, model, 7, quickSweepConfig())
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
			unsafe := g.UnsafeSet()
			if len(unsafe.OnsetMV) != len(g.FreqsKHz) {
				t.Errorf("%s: only %d/%d frequencies have unsafe regions",
					model, len(unsafe.OnsetMV), len(g.FreqsKHz))
			}
			msv := g.MaximalSafeOffsetMV(0)
			if msv >= 0 || msv < -300 {
				t.Errorf("%s: implausible maximal safe state %d mV", model, msv)
			}
		})
	}
}

func TestPerClassOnsetOrdering(t *testing.T) {
	// Measured version of the paper's claim that imul is the most
	// fault-prone instruction: sweeping the same machine with shallower
	// instruction classes must find deeper (more negative) onsets.
	onsetAt := func(class cpu.Class, freqKHz int) int {
		cfg := quickSweepConfig()
		cfg.Class = class
		g := characterizeGrid(t, "skylake", 61, cfg)
		onset, ok := g.OnsetMV(freqKHz)
		if !ok {
			t.Fatalf("class %s: no onset at %d kHz", class, freqKHz)
		}
		return onset
	}
	const freq = 3_200_000
	imul := onsetAt(cpu.ClassIMul, freq)
	aes := onsetAt(cpu.ClassAES, freq)
	fma := onsetAt(cpu.ClassFMA, freq)
	if !(imul > aes && aes > fma) {
		t.Fatalf("onset ordering violated: imul %d, aes %d, fma %d (want imul shallowest)",
			imul, aes, fma)
	}
}

func TestDefaultClassIsIMul(t *testing.T) {
	cfg := DefaultCharacterizerConfig()
	if cfg.Class != cpu.ClassIMul {
		t.Fatalf("default EXECUTE class %q", cfg.Class)
	}
	// Empty class falls back to imul rather than failing.
	cfg = quickSweepConfig()
	cfg.Class = ""
	cfg.OffsetEndMV = -150
	characterizeGrid(t, "skylake", 62, cfg)
}

// TestAnalyticClassifierMatchesExecutedBatches checks the shortcut the
// engine rests on against the thing it stands for. The engine classifies a
// cell from the predicted per-instruction probabilities lifted to batch
// level; here Sky Lake cells whose batch upset probability lies in
// [0.05, 0.95] are programmed for real, their live probabilities must equal
// the prediction exactly, and executed EXECUTE-thread batches must crash,
// and fault when they survive, at the predicted batch rates within a
// binomial bound of |k - Np| <= 5*sqrt(Np(1-p)) + 1.
func TestAnalyticClassifierMatchesExecutedBatches(t *testing.T) {
	const (
		victim  = 1
		iters   = 200_000
		batches = 400
	)
	p := newPlatform(t, "skylake", 2024)
	c := p.Core(victim)
	type cell struct {
		ratio    uint8
		offsetMV int
	}
	inBand := func(pAny float64) bool { return pAny >= 0.05 && pAny <= 0.95 }
	// Per ratio, take the first cell in the fault band and the first in the
	// crash band.
	var cells []cell
	for ratio := p.Spec.MinRatio; ratio <= p.Spec.MaxTurboRatio && len(cells) < 10; ratio += 3 {
		if err := p.SetRatioViaMSR(victim, ratio); err != nil {
			t.Fatal(err)
		}
		var gotFault, gotCrash bool
		for off := -1; off >= -300; off-- {
			pf, pc := c.PredictProbabilities(cpu.ClassIMul, off)
			if !gotFault && inBand(cpu.BatchUpsetProbability(iters, pf)) {
				gotFault = true
				cells = append(cells, cell{ratio, off})
			}
			if !gotCrash && inBand(cpu.BatchUpsetProbability(iters, pc)) {
				gotCrash = true
				cells = append(cells, cell{ratio, off})
			}
		}
	}
	if len(cells) < 10 {
		t.Fatalf("found %d cells in the [0.05, 0.95] band, want 10", len(cells))
	}
	program := func(x cell) {
		t.Helper()
		if err := p.SetRatioViaMSR(victim, x.ratio); err != nil {
			t.Fatal(err)
		}
		if err := p.WriteOffsetViaMSR(victim, x.offsetMV, msr.PlaneCore); err != nil {
			t.Fatal(err)
		}
		p.SettleCommanded(victim)
	}
	within := func(k, n int, prob float64) bool {
		np := float64(n) * prob
		return math.Abs(float64(k)-np) <= 5*math.Sqrt(np*(1-prob))+1
	}
	for _, x := range cells {
		program(x)
		pf, pc := c.PredictProbabilities(cpu.ClassIMul, x.offsetMV)
		if got := c.FaultProbability(cpu.ClassIMul); got != pf {
			t.Fatalf("%+v: live fault probability %g, predicted %g", x, got, pf)
		}
		if got := c.CrashProbability(); got != pc {
			t.Fatalf("%+v: live crash probability %g, predicted %g", x, got, pc)
		}
		pAnyF := cpu.BatchUpsetProbability(iters, pf)
		pAnyC := cpu.BatchUpsetProbability(iters, pc)
		crashes, survived, faulted := 0, 0, 0
		for i := 0; i < batches; i++ {
			res, err := c.RunBatch(cpu.ClassIMul, iters)
			if res.Crashed {
				crashes++
				p.Reboot()
				program(x)
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			survived++
			if res.Faults > 0 {
				faulted++
			}
		}
		if !within(crashes, batches, pAnyC) {
			t.Errorf("%+v: %d/%d batches crashed, predicted p=%.3f", x, crashes, batches, pAnyC)
		}
		if !within(faulted, survived, pAnyF) {
			t.Errorf("%+v: %d/%d surviving batches faulted, predicted p=%.3f", x, faulted, survived, pAnyF)
		}
		t.Logf("%+v: crash %d/%d (p=%.3f), fault %d/%d (p=%.3f)",
			x, crashes, batches, pAnyC, faulted, survived, pAnyF)
	}
}
