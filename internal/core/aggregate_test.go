package core

import (
	"testing"
)

// runGrid characterizes skylake with a short sweep under the given seed.
func runGrid(t *testing.T, seed int64) *Grid {
	t.Helper()
	return characterizeGrid(t, "skylake", seed, quickSweepConfig())
}

func TestAggregateGridsConservative(t *testing.T) {
	grids := []*Grid{runGrid(t, 101), runGrid(t, 102), runGrid(t, 103)}
	agg, err := AggregateGrids(grids)
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.Validate(); err != nil {
		t.Fatal(err)
	}
	if agg.Iterations != grids[0].Iterations*3 {
		t.Fatalf("composite iterations %d", agg.Iterations)
	}
	if agg.Seed != -1 {
		t.Fatalf("composite seed %d", agg.Seed)
	}
	// Conservatism: the aggregate is never safer than any constituent.
	for fi := range agg.Cells {
		for oi := range agg.Cells[fi] {
			for _, g := range grids {
				if agg.Cells[fi][oi] < g.Cells[fi][oi] {
					t.Fatalf("aggregate cell (%d,%d) safer than a run", fi, oi)
				}
			}
		}
	}
	// Aggregate onset is the shallowest across runs at every frequency.
	for _, f := range agg.FreqsKHz {
		aggOn, ok := agg.OnsetMV(f)
		if !ok {
			t.Fatalf("aggregate lost onset at %d", f)
		}
		for _, g := range grids {
			if on, ok := g.OnsetMV(f); ok && aggOn < on {
				t.Fatalf("aggregate onset %d deeper than run onset %d at %d kHz", aggOn, on, f)
			}
		}
	}
	rb := 0
	for _, g := range grids {
		rb += g.Reboots
	}
	if agg.Reboots != rb {
		t.Fatalf("aggregate reboots %d want %d", agg.Reboots, rb)
	}
}

func TestAggregateGridsValidation(t *testing.T) {
	if _, err := AggregateGrids(nil); err == nil {
		t.Fatal("empty aggregate accepted")
	}
	g1 := runGrid(t, 104)
	bad := runGrid(t, 105)
	bad.Model = "Other Lake"
	if _, err := AggregateGrids([]*Grid{g1, bad}); err == nil {
		t.Fatal("mixed models accepted")
	}
	short := runGrid(t, 106)
	short.FreqsKHz = short.FreqsKHz[:5]
	short.Cells = short.Cells[:5]
	if _, err := AggregateGrids([]*Grid{g1, short}); err == nil {
		t.Fatal("mismatched axes accepted")
	}
	shifted := runGrid(t, 107)
	shifted.FreqsKHz[0] += 1000
	if _, err := AggregateGrids([]*Grid{g1, shifted}); err == nil {
		t.Fatal("shifted frequency axis accepted")
	}
	offShift := runGrid(t, 108)
	offShift.OffsetsMV[1] = -6
	if _, err := AggregateGrids([]*Grid{g1, offShift}); err == nil {
		t.Fatal("shifted offset axis accepted")
	}
	invalid := &Grid{}
	if _, err := AggregateGrids([]*Grid{invalid}); err == nil {
		t.Fatal("invalid grid accepted")
	}
}

func TestOnsetSpreads(t *testing.T) {
	grids := []*Grid{runGrid(t, 111), runGrid(t, 112), runGrid(t, 113)}
	spreads, err := OnsetSpreads(grids)
	if err != nil {
		t.Fatal(err)
	}
	if len(spreads) != len(grids[0].FreqsKHz) {
		t.Fatalf("spread rows %d", len(spreads))
	}
	for _, sp := range spreads {
		if sp.Runs != 3 {
			t.Fatalf("%d kHz: runs %d", sp.FreqKHz, sp.Runs)
		}
		if sp.MinMV > sp.MaxMV {
			t.Fatalf("%d kHz: min %d > max %d", sp.FreqKHz, sp.MinMV, sp.MaxMV)
		}
		if sp.MeanMV < float64(sp.MinMV) || sp.MeanMV > float64(sp.MaxMV) {
			t.Fatalf("%d kHz: mean %v outside [%d, %d]", sp.FreqKHz, sp.MeanMV, sp.MinMV, sp.MaxMV)
		}
		// Run-to-run onset variance is real (binomial detection near the
		// statistical threshold) and is precisely why the guard carries a
		// margin; bound it loosely for sanity.
		if sp.StdMV < 0 || sp.StdMV > 60 {
			t.Fatalf("%d kHz: implausible onset std %v mV", sp.FreqKHz, sp.StdMV)
		}
		if sp.MinMV < -350 || sp.MaxMV >= 0 {
			t.Fatalf("%d kHz: onset range [%d, %d] outside the sweep", sp.FreqKHz, sp.MinMV, sp.MaxMV)
		}
	}
	if _, err := OnsetSpreads(nil); err == nil {
		t.Fatal("empty spreads accepted")
	}
}
