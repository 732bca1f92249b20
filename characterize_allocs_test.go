package plugvolt_test

import (
	"testing"

	"plugvolt"
)

// TestCharacterizeAllocCeilings is a deterministic counter gate on the
// Figs. 2–4 path: booting a system and characterizing it with QuickSweep on
// one worker must stay within a fixed number of heap allocations per model.
// The ceilings sit a few allocations above the counts measured with
// go1.24.0 on linux/amd64 when they were set (3,647 / 3,932 / 5,716), below
// the counts of the per-row prediction scan they replaced (3,761 / 4,055 /
// 5,899), so a regression to a per-cell or per-row allocation shows here no
// matter how noisy the host is. A toolchain bump may change the counts and
// re-set the ceilings, provided they stay below those of the per-row scan,
// so the gate still bites.
func TestCharacterizeAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	for _, tc := range []struct {
		fig, model string
		ceiling    float64
	}{
		{"Fig2", "skylake", 3650},
		{"Fig3", "kabylaker", 3936},
		{"Fig4", "cometlake", 5720},
	} {
		t.Run(tc.fig, func(t *testing.T) {
			run := func() {
				sys, err := plugvolt.NewSystem(tc.model, 42)
				if err != nil {
					t.Fatal(err)
				}
				cfg := plugvolt.QuickSweep()
				cfg.Workers = 1
				if _, err := sys.Characterize(cfg); err != nil {
					t.Fatal(err)
				}
			}
			// One run before AllocsPerRun's own warm-up: if filling the
			// simulator's seed cache overflows and drops it, the warm-up
			// refills it, so the measured runs all hit it.
			run()
			if got := testing.AllocsPerRun(5, run); got > tc.ceiling {
				t.Fatalf("%s characterization: %v allocs/op, ceiling %v", tc.model, got, tc.ceiling)
			}
		})
	}
}
