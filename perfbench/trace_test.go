package main

import (
	"math"
	"testing"
)

const tracesFixture = `File: perfbench.bin
Type: cpu
Duration: 2.11s, Total samples = 100ms (4.74%)
-----------+-------------------------------------------------------
      40ms   internal/sync.(*Mutex).Lock (inline)
             plugvolt/internal/telemetry/span.(*Tracer).startScope
             plugvolt/internal/core.(*Guard).pollOne
             plugvolt/internal/sim.(*Simulator).RunFor (inline)
             main.(*guardWL).measure
-----------+-------------------------------------------------------
      20ms   runtime.mallocgc
             plugvolt/internal/models.SkyLake
             plugvolt.NewSystem
             main.(*guardWL).setup
-----------+-------------------------------------------------------
      10ms   math.Erfc
             main.kernelPass
-----------+-------------------------------------------------------
      20ms   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      10ms   plugvolt/internal/fleet.RunStream.func1
             runtime.goexit
-----------+-------------------------------------------------------
`

// Each sample goes to its innermost plugvolt/internal module; samples with
// none go to the harness, other plugvolt code or the runtime.
func TestFoldSelfCPU(t *testing.T) {
	got, err := foldSelfCPU([]byte(tracesFixture))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"span": 40, "other": 20, "harness": 10, "runtime_bg": 20, "fleet": 10}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for m, v := range want {
		if math.Abs(got[m]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", m, got[m], v)
		}
	}
}

func TestFoldSelfCPUEmpty(t *testing.T) {
	if _, err := foldSelfCPU([]byte("File: x\n")); err == nil {
		t.Fatal("no samples: want an error")
	}
}
