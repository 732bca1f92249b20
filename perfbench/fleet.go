package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"

	"plugvolt"
	"plugvolt/internal/fleet"
	"plugvolt/internal/models"
	"plugvolt/internal/sim"
)

const (
	// fleetBatch machines are resident at once: two of each model, so
	// every batch does the same mix of work. (Batches of 2 gave more ops
	// per run but spread 3 to 5 times wider between runs: every op then
	// waits for both workers, so interference on either vCPU shows.)
	fleetBatch  = 6
	fleetEpochs = 4
	fleetWindow = 10 * sim.Millisecond
	// fleetMachines only has to outlast the run; the stream is halted at a
	// batch boundary.
	fleetMachines = fleetBatch * 1_000_000
)

// fleetWL is the streaming fleet engine over the three-model mix, idling
// under guard (attack "none") in epoch-sliced windows. One op is one batch,
// timed between Progress callbacks.
type fleetWL struct {
	report []byte // report JSON and merged exposition of the set-up stream

	batches, windows, errs int
	heapMB                 []float64
}

func (w *fleetWL) par() int       { return runtime.GOMAXPROCS(0) }
func (w *fleetWL) opName() string { return "fleet.batch" }

func (w *fleetWL) config(h *harness, machines int) fleet.StreamConfig {
	return fleet.StreamConfig{
		Config: fleet.Config{Machines: machines, Workers: w.par(), Seed: h.seed,
			Attack: "none", Window: fleetWindow},
		Epochs: fleetEpochs,
		Batch:  fleetBatch,
	}
}

// setup runs one complete single-batch stream: spec caches, boot,
// characterization, guard deployment and the first machine-windows.
func (w *fleetWL) setup(h *harness) error {
	var rep *fleet.StreamReport
	err := h.timed("fleet.setup", func() (err error) {
		rep, err = fleet.RunStream(w.config(h, fleetBatch))
		return err
	})
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	js, err := rep.JSON()
	if err != nil {
		return err
	}
	buf.Write(js)
	if err := rep.WriteMetrics(&buf); err != nil {
		return err
	}
	if w.report != nil && !bytes.Equal(w.report, buf.Bytes()) {
		h.check(errors.New("fleet report changed between set-ups"))
	}
	w.report = buf.Bytes()
	return nil
}

// probe times one boot and one quick characterization per model, which the
// fleet engine does inside its workers where the harness cannot see them.
func (w *fleetWL) probe(h *harness) error {
	for _, name := range plugvolt.Models() {
		spec, err := models.ByName(name)
		if err != nil {
			return err
		}
		var sys *plugvolt.System
		if err := h.timed("boot", func() (err error) {
			sys, err = plugvolt.NewSystemFromSpec(spec, h.seed)
			return err
		}); err != nil {
			return err
		}
		if err := h.timed("characterize", func() error {
			_, err := sys.Characterize(plugvolt.QuickSweep())
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

func (w *fleetWL) measure(h *harness, rec *recorder) error {
	cfg := w.config(h, fleetMachines)
	var last fleet.Progress
	cfg.Progress = func(p fleet.Progress) {
		defer func() { last = p }()
		if !rec.open {
			return // the stream's first batch refills the spec caches
		}
		windows := p.WindowsDone - last.WindowsDone
		rec.end(float64(windows))
		w.batches++
		w.windows += int(windows)
		w.errs += p.Errors - last.Errors
		w.heapMB = append(w.heapMB, float64(p.HeapBytes)/(1<<20))
		switch {
		case p.Errors != last.Errors:
			h.check(fmt.Errorf("batch %d: %d machine errors", p.BatchesDone, p.Errors-last.Errors))
		case p.Resident != fleetBatch || windows != int64(fleetBatch*fleetEpochs):
			h.check(fmt.Errorf("batch %d: %d machine-windows from %d machines, want %d", p.BatchesDone, windows, p.Resident, fleetBatch*fleetEpochs))
		default:
			h.check(nil)
		}
	}
	cfg.Halt = func(fleet.Progress) bool {
		if !rec.more() {
			return true
		}
		rec.begin()
		return false
	}
	if _, err := fleet.RunStream(cfg); !errors.Is(err, fleet.ErrHalted) {
		return fmt.Errorf("fleet stream ended without halting: %v", err)
	}
	return nil
}

func (w *fleetWL) counters() map[string]float64 {
	return map[string]float64{
		"batches": float64(w.batches),
		"windows": float64(w.windows),
		"errors":  float64(w.errs),
	}
}

func (w *fleetWL) layers(c *layerCtx, out map[string]float64) {
	out["cpu.boot_ms"] = c.lapMS("boot")
	out["core.characterize_ms"] = c.lapMS("characterize")
	out["fleet.heap_mb_per_batch"] = quantile(w.heapMB, 0.5)
	out["fleet.errors"] = c.d["errors"]
}

func (w *fleetWL) digest() uint64 {
	h := fnv.New64a()
	h.Write(w.report)
	return h.Sum64()
}
