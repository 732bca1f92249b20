package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"

	"plugvolt"
	"plugvolt/internal/core"
	"plugvolt/internal/telemetry"
)

// poolSeeds is how many machine seeds each model gets in the characterize
// rotation; ops cycle through the pool, so every (model, seed) pair repeats
// and its grid digest can be checked against the set-up's.
const poolSeeds = 4

// characterizeWL is the S1 user path: one op is one paper-resolution grid
// (Algorithm 2, Figs. 2–4) on the sharded engine at Workers = GOMAXPROCS,
// models rotating skylake → kabylaker → cometlake.
type characterizeWL struct {
	pool []*plugvolt.System
	ref  []uint64 // grid digest per pool entry, from the set-up
	next int

	grids, reboots          int
	probes, cells, fallback float64
}

func (w *characterizeWL) par() int       { return runtime.GOMAXPROCS(0) }
func (w *characterizeWL) opName() string { return "grid" }

// paperSweep is the Figs. 2–4 configuration on GOMAXPROCS shards.
func paperSweep() plugvolt.CharacterizerConfig {
	cfg := plugvolt.PaperSweep()
	cfg.Workers = runtime.GOMAXPROCS(0)
	return cfg
}

// setup boots the pool and characterizes every machine once, which fills
// the per-spec caches and records the reference digests.
func (w *characterizeWL) setup(h *harness) error {
	rng := rand.New(rand.NewSource(h.seed))
	seeds := make([]int64, poolSeeds)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	w.pool = w.pool[:0]
	for _, seed := range seeds {
		for _, model := range plugvolt.Models() {
			var sys *plugvolt.System
			err := h.timed("boot", func() (err error) {
				sys, err = plugvolt.NewSystem(model, seed)
				return err
			})
			if err != nil {
				return err
			}
			w.pool = append(w.pool, sys)
		}
	}
	refs := make([]uint64, len(w.pool))
	for i, sys := range w.pool {
		g, err := w.grid(h, sys, nil)
		if err != nil {
			return err
		}
		refs[i] = gridDigest(g)
	}
	if w.ref != nil {
		for i := range refs {
			if refs[i] != w.ref[i] {
				h.check(fmt.Errorf("pool entry %d: grid digest changed between set-ups", i))
			}
		}
	}
	w.ref = refs
	return nil
}

func (w *characterizeWL) measure(h *harness, rec *recorder) error {
	for rec.more() {
		idx := w.next % len(w.pool)
		w.next++
		g, err := w.grid(h, w.pool[idx], rec)
		if err != nil {
			return err
		}
		w.grids++
		w.reboots += g.Reboots
		h.check(checkGrid(g, w.ref[idx]))
	}
	return nil
}

// grid characterizes sys at paper resolution, timed as one op when rec is
// set. Each grid publishes into a fresh default telemetry set, as one
// plugvolt-characterize run does, so the pool's memory does not grow with
// the number of ops; the search counters are read back from it.
func (w *characterizeWL) grid(h *harness, sys *plugvolt.System, rec *recorder) (*core.Grid, error) {
	tel := telemetry.NewSet(sys.Platform.Sim.Now, telemetry.DefaultJournalCap, sys.Platform.Seed())
	cfg := paperSweep()
	cfg.Telemetry = tel
	var g *core.Grid
	if rec != nil {
		rec.begin()
	}
	err := h.timed("characterize", func() (err error) {
		g, err = sys.Characterize(cfg)
		return err
	})
	if rec != nil {
		rec.end(1)
	}
	if err != nil {
		return nil, err
	}
	reg := tel.Registry()
	for _, s := range []string{core.StrategySweep, core.StrategyBisect} {
		lbl := telemetry.Labels{"strategy": s}
		w.probes += reg.Counter("search_probes_total", "", lbl).Value()
		w.fallback += reg.Counter("search_fallback_rows_total", "", lbl).Value()
	}
	for _, cls := range []core.Classification{core.Safe, core.Fault, core.Crash} {
		w.cells += reg.Counter("characterize_cells_total", "", telemetry.Labels{"class": cls.String()}).Value()
	}
	return g, nil
}

// checkGrid gates one grid: every row must be monotone Safe* Fault* Crash*,
// and the digest must match the set-up's for the same (model, seed).
func checkGrid(g *core.Grid, want uint64) error {
	for f, row := range g.Cells {
		for o := 1; o < len(row); o++ {
			if row[o] < row[o-1] {
				return fmt.Errorf("%s row %d kHz not monotone at %d mV", g.Model, g.FreqsKHz[f], g.OffsetsMV[o])
			}
		}
	}
	if got := gridDigest(g); got != want {
		return fmt.Errorf("%s seed %d: grid digest %016x, set-up gave %016x", g.Model, g.Seed, got, want)
	}
	return nil
}

// gridDigest hashes everything a grid reports.
func gridDigest(g *core.Grid) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	h.Write([]byte(g.Model + "\x00" + g.Microcode + "\x00"))
	put(g.Seed)
	put(int64(g.Iterations))
	put(int64(g.Reboots))
	for _, f := range g.FreqsKHz {
		put(int64(f))
	}
	for _, o := range g.OffsetsMV {
		put(int64(o))
	}
	for _, row := range g.Cells {
		for _, c := range row {
			h.Write([]byte{byte(c)})
		}
	}
	return h.Sum64()
}

func (w *characterizeWL) counters() map[string]float64 {
	return map[string]float64{
		"grids":    float64(w.grids),
		"reboots":  float64(w.reboots),
		"probes":   w.probes,
		"cells":    w.cells,
		"fallback": w.fallback,
	}
}

func (w *characterizeWL) layers(c *layerCtx, out map[string]float64) {
	grids := c.d["grids"]
	out["cpu.boot_ms"] = c.lapMS("boot")
	out["core.characterize_ms"] = c.lapMS("characterize")
	if grids > 0 {
		out["cpu.reboots_per_grid"] = c.d["reboots"] / grids
		out["core.probes_per_grid"] = c.d["probes"] / grids
	}
	if c.d["probes"] > 0 {
		out["core.cells_per_probe"] = c.d["cells"] / c.d["probes"]
	}
	out["core.fallback_rows"] = c.d["fallback"]
}

// digest covers every pool grid, so it is the same for a seed however many
// ops a run makes.
func (w *characterizeWL) digest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, r := range w.ref {
		binary.LittleEndian.PutUint64(buf[:], r)
		h.Write(buf[:])
	}
	return h.Sum64()
}
