package fleet

import (
	"bytes"
	"testing"

	"plugvolt/internal/sim"
)

// TestFleetDeterminismAcrossWorkers is the tentpole invariant, mirroring the
// characterizer's sharding contract: the full report JSON and the merged
// Prometheus exposition must be byte-identical at -workers 1, 2 and 8. Runs
// under -race in CI (the test job runs the whole suite with the race
// detector), which also vets the worker pool's disjoint-slot writes.
func TestFleetDeterminismAcrossWorkers(t *testing.T) {
	base := Config{Machines: 5, Seed: 99, Attack: "voltjockey"}
	var wantJSON, wantMetrics []byte
	for _, workers := range []int{1, 2, 8} {
		cfg := StreamConfig{Config: base}
		cfg.Workers = workers
		j, m := renderStream(t, cfg)
		if wantJSON == nil {
			wantJSON, wantMetrics = j, m
			continue
		}
		if !bytes.Equal(j, wantJSON) {
			t.Errorf("workers=%d: report JSON diverges from workers=1", workers)
		}
		if !bytes.Equal(m, wantMetrics) {
			t.Errorf("workers=%d: merged exposition diverges from workers=1", workers)
		}
	}
	if !bytes.Contains(wantJSON, []byte(`"voltjockey"`)) {
		t.Error("report carries no attack outcome")
	}
}

// TestFleetRedTeamDeterminismAcrossWorkers extends the byte-identity
// contract to the adaptive red-team mode: even though each machine's
// annealing attacker chooses its probe sequence from its own seeded stream,
// the fleet report JSON and merged exposition must be byte-identical at
// -workers 1, 2 and 8.
func TestFleetRedTeamDeterminismAcrossWorkers(t *testing.T) {
	base := Config{Machines: 3, Seed: 21, Attack: "redteam"}
	var wantJSON, wantMetrics []byte
	for _, workers := range []int{1, 2, 8} {
		cfg := StreamConfig{Config: base}
		cfg.Workers = workers
		j, m := renderStream(t, cfg)
		if wantJSON == nil {
			wantJSON, wantMetrics = j, m
			continue
		}
		if !bytes.Equal(j, wantJSON) {
			t.Errorf("workers=%d: red-team report JSON diverges from workers=1", workers)
		}
		if !bytes.Equal(m, wantMetrics) {
			t.Errorf("workers=%d: red-team merged exposition diverges from workers=1", workers)
		}
	}
	if !bytes.Contains(wantJSON, []byte(`"redteam"`)) {
		t.Error("report carries no red-team outcome")
	}
}

// TestFleetGuardProtects sanity-checks the simulated outcome: a guarded
// mixed fleet under attack sees interventions and no successful campaigns.
func TestFleetGuardProtects(t *testing.T) {
	rep, err := RunStream(StreamConfig{Config: Config{Machines: 3, Workers: 2, Seed: 7, Attack: "voltjockey"}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Aggregate.Errors != 0 {
		t.Fatalf("fleet errors: %+v", rep.ModelRows)
	}
	if rep.Aggregate.AttacksRun != 3 || rep.Aggregate.AttacksSucceeded != 0 {
		t.Fatalf("aggregate %+v: want 3 attacks run, 0 succeeded", rep.Aggregate)
	}
	if rep.Aggregate.GuardChecks == 0 || rep.Aggregate.GuardInterventions == 0 {
		t.Fatalf("aggregate %+v: guard never engaged", rep.Aggregate)
	}
	// The default model cycle covers all three specs, one machine each.
	if len(rep.ModelRows) != 3 {
		t.Fatalf("fleet models %+v: want all three specs", rep.ModelRows)
	}
	for _, m := range rep.ModelRows {
		if m.Machines != 1 {
			t.Fatalf("model %s ran %d machines, want 1", m.Model, m.Machines)
		}
	}
	// The merged exposition aggregates per-machine series: total polls in
	// the merged snapshot must equal the sum of per-machine checks.
	if got := rep.Merged.Total("guard_polls_total"); got != float64(rep.Aggregate.GuardChecks) {
		t.Fatalf("merged guard_polls_total %v != aggregate checks %d", got, rep.Aggregate.GuardChecks)
	}
}

// TestFleetIdleWindow covers the "none" campaign machine by machine: each
// idles under guard for the configured window, runs no campaign, and
// accumulates poll checks.
func TestFleetIdleWindow(t *testing.T) {
	cfg := Config{Machines: 2, Seed: 3, Attack: "none", Window: 5 * sim.Millisecond}
	_, results := runSerial(t, &cfg)
	for idx, r := range results {
		if r.err != nil || r.campaign != nil {
			t.Fatalf("machine %d: err %v, campaign %+v", idx, r.err, r.campaign)
		}
		if r.guardChecks == 0 {
			t.Fatalf("machine %d: guard never polled", idx)
		}
		if r.virtualPS < int64(5*sim.Millisecond) {
			t.Fatalf("machine %d only reached %d ps", idx, r.virtualPS)
		}
	}
}

// TestFleetConfigValidation covers the config error paths.
func TestFleetConfigValidation(t *testing.T) {
	for name, cfg := range map[string]Config{
		"zero machines":  {Machines: 0},
		"unknown attack": {Machines: 1, Attack: "rowhammer"},
		"unknown model":  {Machines: 1, Models: []string{"pentium4"}},
	} {
		if _, err := RunStream(StreamConfig{Config: cfg}); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestMachineSeedProperties pins the seed derivation: index-pure, distinct
// across a large fleet, and sensitive to the fleet seed.
func TestMachineSeedProperties(t *testing.T) {
	seen := map[int64]int{}
	for i := 0; i < 4096; i++ {
		s := MachineSeed(42, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("MachineSeed(42, %d) == MachineSeed(42, %d)", i, prev)
		}
		seen[s] = i
		if s != MachineSeed(42, i) {
			t.Fatal("MachineSeed not pure")
		}
	}
	if MachineSeed(1, 0) == MachineSeed(2, 0) {
		t.Error("fleet seed does not reach machine seeds")
	}
}

// TestFleetReportOmitsWorkers: neither report form may name the worker
// count, even when it exceeds the fleet and the pool is clamped to it.
func TestFleetReportOmitsWorkers(t *testing.T) {
	cfg := StreamConfig{Config: Config{Machines: 1, Seed: 1, Attack: "none", Window: sim.Millisecond}}
	cfg.Workers = 3
	j, m := renderStream(t, cfg)
	if bytes.Contains(j, []byte("workers")) {
		t.Error("report JSON leaks the worker count")
	}
	if bytes.Contains(m, []byte("workers")) {
		t.Error("exposition leaks the worker count")
	}
}

// TestFleetEnergyRollup pins the joule axis of the report: every machine
// bills energy, and the engine's aggregate and per-model energy are the
// machine-index-ordered sums of the machines' bills, bit for bit, whatever
// the execution split.
func TestFleetEnergyRollup(t *testing.T) {
	base := Config{Machines: 4, Seed: 13, Attack: "voltjockey"}
	cfg := base
	_, results := runSerial(t, &cfg)
	var sum float64
	byModel := map[string]float64{}
	for idx, r := range results {
		if r.energyJ <= 0 {
			t.Fatalf("machine %d billed %g J", idx, r.energyJ)
		}
		sum += r.energyJ
		byModel[r.model] += r.energyJ
	}

	scfg := StreamConfig{Config: base, Batch: 2}
	scfg.Workers = 8
	rep, err := RunStream(scfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Aggregate.EnergyJ != sum {
		t.Fatalf("aggregate energy %v != index-ordered machine sum %v", rep.Aggregate.EnergyJ, sum)
	}
	for _, m := range rep.ModelRows {
		if m.EnergyJ != byModel[m.Model] {
			t.Fatalf("model %s energy %v != index-ordered machine sum %v", m.Model, m.EnergyJ, byModel[m.Model])
		}
	}
}
