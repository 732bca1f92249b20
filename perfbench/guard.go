package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"plugvolt"
	"plugvolt/internal/core"
	"plugvolt/internal/cpu"
	"plugvolt/internal/defense"
	"plugvolt/internal/kernel"
	"plugvolt/internal/msr"
	"plugvolt/internal/sim"
	"plugvolt/internal/victim"
)

const (
	// guardWindow is the virtual time one guard op simulates.
	guardWindow = 100 * sim.Millisecond
	// warmChunk and warmLimit bound the set-up warm-up that fills the
	// journal and the span buffer.
	warmChunk = 50 * sim.Millisecond
	warmLimit = 1000
	// The live adversary of plugvolt-guard: an unsafe offset rewritten on
	// core 1 every attackPeriod, a victim imul batch every victimGap.
	attackCore   = 1
	attackPeriod = 537 * sim.Microsecond
	attackMargin = 60
	victimGap    = 200 * sim.Microsecond
	victimIMuls  = 100_000
)

// guardWL is the S2 polling guard on a quick-characterized Sky Lake
// machine with default telemetry, warmed until the journal and the span
// buffer sit in their drop-newest regime. One op is guardWindow of virtual
// time. With attack set, plugvolt-guard's live adversary and victim run
// and a flight recorder is attached: the guard's write path; without it,
// its steady-state read path.
type guardWL struct {
	attack bool

	sys    *plugvolt.System
	pol    *defense.Polling
	unsafe *core.UnsafeSet
	offset int
	h      *harness

	grid    []byte
	opSums  []byte // deterministic per-op counters of the first minOps ops
	ops     int
	writes  int
	unsafeW int
	faults  int
	crashes int
}

func (w *guardWL) par() int       { return 1 }
func (w *guardWL) opName() string { return "window" }

func (w *guardWL) setup(h *harness) error {
	w.h = h
	w.writes, w.unsafeW = 0, 0
	var sys *plugvolt.System
	err := h.timed("boot", func() (err error) {
		sys, err = plugvolt.NewSystem("skylake", h.seed)
		return err
	})
	if err != nil {
		return err
	}
	if w.attack {
		sys.AttachFlightRecorder(0, 0)
	}
	var grid *core.Grid
	if err := h.timed("characterize", func() (err error) {
		grid, err = sys.Characterize(plugvolt.QuickSweep())
		return err
	}); err != nil {
		return err
	}
	var pol *defense.Polling
	if err := h.timed("deploy", func() (err error) {
		pol, err = sys.DeployGuard(grid)
		return err
	}); err != nil {
		return err
	}
	w.sys, w.pol, w.unsafe = sys, pol, grid.UnsafeSet()
	if w.grid, err = grid.JSON(); err != nil {
		return err
	}
	p := sys.Platform
	if w.attack {
		w.offset = w.unsafe.OnsetMV[p.FreqKHz(attackCore)] - attackMargin
		p.Sim.Every(attackPeriod, w.write)
	}
	tel := sys.Telemetry
	for i := 0; !tel.Events().Full() || tel.Spans().Dropped() == 0; i++ {
		if i == warmLimit {
			return errors.New("telemetry buffers never filled during warm-up")
		}
		if err := h.timed("warm", func() error {
			p.Sim.RunFor(warmChunk)
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// write is one adversary mailbox write; it fires inside the simulator.
func (w *guardWL) write() {
	p := w.sys.Platform
	if w.unsafe.Contains(p.FreqKHz(attackCore), w.offset) {
		w.unsafeW++
	}
	sp := w.h.tr.Start("harness", "attack.write", nil)
	start := time.Now()
	// A rejected write is the guard or the platform doing its job; the
	// closure ratio and the victim's fault count are the gates.
	_ = p.WriteOffsetViaMSR(attackCore, w.offset, msr.PlaneCore)
	w.h.addLap("attack.write", time.Since(start))
	sp.End()
	w.writes++
}

func (w *guardWL) measure(h *harness, rec *recorder) error {
	p := w.sys.Platform
	g := w.pol.Guard
	ticks := int(guardWindow / core.DefaultGuardConfig().PollPeriod)
	for rec.more() {
		checks, interventions := g.Checks, g.Interventions
		faults, crashes := w.faults, w.crashes
		t0 := p.Sim.Now()
		rec.begin()
		if w.attack {
			w.attackWindow(h, t0+guardWindow)
		} else {
			p.Sim.RunFor(guardWindow)
		}
		virt := p.Sim.Now() - t0
		rec.end(virt.Seconds())
		w.ops++
		dChecks, dInter := g.Checks-checks, g.Interventions-interventions
		if w.ops <= minOps {
			w.sumOp(dChecks, dInter, virt)
		}
		switch {
		case w.attack && (w.faults != faults || w.crashes != crashes):
			h.check(fmt.Errorf("op %d: %d faults, %d crashes under attack", w.ops, w.faults-faults, w.crashes-crashes))
		case w.attack && dInter == 0:
			h.check(fmt.Errorf("op %d: guard never intervened under attack", w.ops))
		case !w.attack && dInter != 0:
			h.check(fmt.Errorf("op %d: %d interventions in benign steady state", w.ops, dInter))
		case !w.attack && dChecks != uint64(ticks*p.NumCores()):
			h.check(fmt.Errorf("op %d: %d checks, want %d per tick over %d ticks", w.ops, dChecks, p.NumCores(), ticks))
		default:
			h.check(nil)
		}
	}
	return nil
}

// attackWindow runs victim batches on the attacked core until the virtual
// deadline, as plugvolt-guard's attack loop does.
func (w *guardWL) attackWindow(h *harness, deadline sim.Time) {
	p := w.sys.Platform
	for p.Sim.Now() < deadline {
		p.Sim.RunFor(victimGap)
		sp := h.tr.Start("harness", "victim.batch", nil)
		start := time.Now()
		loop, err := victim.NewIMulLoop(p.Core(attackCore), victimIMuls)
		if err == nil {
			var res cpu.BatchResult
			res, err = loop.RunBatch()
			w.faults += res.Faults
		}
		h.addLap("victim.batch", time.Since(start))
		sp.End()
		if err != nil {
			w.crashes++
		}
	}
}

// sumOp folds one op's deterministic counters into the digest input.
func (w *guardWL) sumOp(checks, interventions uint64, virt sim.Duration) {
	k := w.sys.Kernel
	var buf [8]byte
	for _, v := range []uint64{checks, interventions, uint64(virt), w.sys.Platform.Sim.Fired(),
		uint64(w.stolen(k, -1)), uint64(w.guardPJ()), math.Float64bits(w.sys.Platform.Energy.PackageEnergyJ()),
		uint64(w.writes), uint64(w.faults)} {
		binary.LittleEndian.PutUint64(buf[:], v)
		w.opSums = append(w.opSums, buf[:]...)
	}
}

// stolen sums kernel stolen time over cores; kind < 0 means every kind.
func (w *guardWL) stolen(k *kernel.Kernel, kind kernel.CostKind) sim.Duration {
	var d sim.Duration
	for c := 0; c < w.sys.Platform.NumCores(); c++ {
		if kind < 0 {
			d += k.StolenTime(c)
		} else {
			d += k.StolenTimeBy(kind, c)
		}
	}
	return d
}

func (w *guardWL) guardPJ() int64 {
	var pj int64
	for c := 0; c < w.sys.Platform.NumCores(); c++ {
		pj += w.sys.Kernel.EnergyPJ(c)
	}
	return pj
}

func (w *guardWL) counters() map[string]float64 {
	p, g, tel := w.sys.Platform, w.pol.Guard, w.sys.Telemetry
	c := map[string]float64{
		"ops":           float64(w.ops),
		"fired":         float64(p.Sim.Fired()),
		"virtual_s":     p.Sim.Now().Seconds(),
		"checks":        float64(g.Checks),
		"interventions": float64(g.Interventions),
		"stolen_ps":     float64(w.stolen(w.sys.Kernel, -1)),
		"interv_ps":     float64(w.stolen(w.sys.Kernel, kernel.CostIntervention)),
		"guard_pj":      float64(w.guardPJ()),
		"pkg_j":         p.Energy.PackageEnergyJ(),
		"span_dropped":  float64(tel.Spans().Dropped()),
		"journal_drop":  float64(tel.Events().Dropped()),
		"writes":        float64(w.writes),
		"unsafe_writes": float64(w.unsafeW),
		"faults":        float64(w.faults),
	}
	if w.sys.Flight != nil {
		c["flight_records"] = float64(w.sys.Flight.Stats().Records)
	}
	return c
}

func (w *guardWL) layers(c *layerCtx, out map[string]float64) {
	cores := float64(w.sys.Platform.NumCores())
	out["sim.events_per_op"] = c.perOp("fired")
	out["sim.host_ns_per_event"] = c.hostNsPer("fired")
	out["cpu.boot_ms"] = c.lapMS("boot")
	out["core.characterize_ms"] = c.lapMS("characterize")
	out["guard.deploy_ms"] = c.lapMS("deploy")
	out["guard.checks_per_op"] = c.perOp("checks")
	out["guard.interventions_per_op"] = c.perOp("interventions")
	out["guard.host_ns_per_check"] = c.hostNsPer("checks")
	out["guard.closure_ratio"] = 1
	if c.d["unsafe_writes"] > 0 {
		out["guard.closure_ratio"] = c.d["interventions"] / c.d["unsafe_writes"]
	}
	out["kernel.stolen_us_per_op"] = c.perOp("stolen_ps") / float64(sim.Microsecond)
	out["kernel.intervention_us_per_op"] = c.perOp("interv_ps") / float64(sim.Microsecond)
	if v := c.d["virtual_s"]; v > 0 {
		out["kernel.guard_stolen_pct"] = 100 * c.d["stolen_ps"] / float64(sim.Second) / (v * cores)
	}
	out["power.guard_uj_per_op"] = c.perOp("guard_pj") * 1e-6
	out["power.pkg_mj_per_op"] = c.perOp("pkg_j") * 1e3
	out["attack.writes_per_op"] = c.perOp("writes")
	out["attack.write_us"] = c.lapMS("attack.write") * 1e3
	out["victim.batch_ms"] = c.lapMS("victim.batch")
	out["victim.faults"] = c.d["faults"]
	out["span.dropped_per_op"] = c.perOp("span_dropped")
	out["telemetry.journal_dropped_per_op"] = c.perOp("journal_drop")
	out["flight.records_per_op"] = c.perOp("flight_records")
}

// digest covers the set-up grid and the counters of the first minOps ops,
// which every run reaches.
func (w *guardWL) digest() uint64 {
	h := fnv.New64a()
	h.Write(w.grid)
	h.Write(w.opSums)
	return h.Sum64()
}
