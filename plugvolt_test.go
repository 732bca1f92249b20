package plugvolt_test

import (
	"errors"
	"testing"

	"plugvolt"
	"plugvolt/internal/core"
	"plugvolt/internal/msr"
	"plugvolt/internal/sim"
)

func TestNewSystemModels(t *testing.T) {
	for _, m := range plugvolt.Models() {
		sys, err := plugvolt.NewSystem(m, 1)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if sys.Platform == nil || sys.Kernel == nil || sys.Registry == nil || sys.CPUFreq == nil {
			t.Fatalf("%s: incomplete system", m)
		}
		if err := sys.Env().Validate(); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
	}
	if _, err := plugvolt.NewSystem("itanium", 1); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestSweepConfigs(t *testing.T) {
	paper := plugvolt.PaperSweep()
	if paper.Iterations != 1_000_000 || paper.OffsetStepMV != -1 || paper.OffsetEndMV != -300 {
		t.Fatalf("paper sweep drifted from Algorithm 2: %+v", paper)
	}
	quick := plugvolt.QuickSweep()
	if quick.OffsetStepMV != -5 || quick.Iterations != 200_000 {
		t.Fatalf("quick sweep: %+v", quick)
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	sys, err := plugvolt.NewSystem("skylake", 5)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := sys.Characterize(plugvolt.QuickSweep())
	if err != nil {
		t.Fatal(err)
	}
	guard, err := sys.DeployGuard(grid)
	if err != nil {
		t.Fatal(err)
	}
	if !sys.Kernel.Loaded(core.ModuleName) {
		t.Fatal("guard module not resident after DeployGuard")
	}
	res, err := plugvolt.NewV0LTpwn().Run(sys.Env(), guard.Name())
	if err != nil {
		t.Fatal(err)
	}
	if res.Succeeded {
		t.Fatalf("attack beat the facade-deployed guard: %s", res)
	}
	sys.RunFor(1 * sim.Millisecond)
	if err := guard.Uninstall(sys.Env()); err != nil {
		t.Fatal(err)
	}
}

func TestDeployGuardValidation(t *testing.T) {
	sys, err := plugvolt.NewSystem("skylake", 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.DeployGuard(nil); err == nil {
		t.Fatal("nil grid accepted")
	}
	if _, err := sys.Defenses(nil); err == nil {
		t.Fatal("nil grid accepted by Defenses")
	}
	grid, err := sys.Characterize(plugvolt.QuickSweep())
	if err != nil {
		t.Fatal(err)
	}
	bad := plugvolt.DefaultGuardConfig()
	bad.PollPeriod = 0
	if _, err := sys.DeployGuardConfig(grid, bad); err == nil {
		t.Fatal("bad guard config accepted")
	}
}

func TestDefensesLineup(t *testing.T) {
	sys, err := plugvolt.NewSystem("skylake", 6)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := sys.Characterize(plugvolt.QuickSweep())
	if err != nil {
		t.Fatal(err)
	}
	defs, err := sys.Defenses(grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(defs) != 5 {
		t.Fatalf("lineup size %d", len(defs))
	}
	// All installable and uninstallable on the same env, one at a time.
	for _, cm := range defs {
		if err := cm.Install(sys.Env()); err != nil {
			t.Fatalf("%s install: %v", cm.Name(), err)
		}
		if err := cm.Uninstall(sys.Env()); err != nil {
			t.Fatalf("%s uninstall: %v", cm.Name(), err)
		}
	}
}

func TestCharacterizeInvalidConfig(t *testing.T) {
	sys, err := plugvolt.NewSystem("skylake", 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := plugvolt.QuickSweep()
	cfg.Iterations = -1
	if _, err := sys.Characterize(cfg); err == nil {
		t.Fatal("invalid sweep accepted")
	}
	var sentinel error
	_ = errors.Is(err, sentinel) // document: errors are plain, not typed
}

// TestCharacterizeLeavesPlatformUntouched pins Characterize's documented
// contract: every row runs on a private platform, so the system's own
// machine keeps its virtual time, reboot count, commanded operating point
// and MSR 0x150 — even when the grid crosses crash cells.
func TestCharacterizeLeavesPlatformUntouched(t *testing.T) {
	sys, err := plugvolt.NewSystem("skylake", 5)
	if err != nil {
		t.Fatal(err)
	}
	p := sys.Platform
	// Move off the stock point first, so a restore-to-stock would show.
	const victim = 1
	if err := p.SetRatioViaMSR(victim, 20); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteOffsetViaMSR(victim, -30, msr.PlaneCore); err != nil {
		t.Fatal(err)
	}
	p.SettleAll()
	type state struct {
		now     sim.Time
		reboots int
		ghz     []float64
		mailbox []uint64
	}
	snapshot := func() state {
		st := state{now: p.Sim.Now(), reboots: p.Reboots}
		for i, c := range p.Cores() {
			st.ghz = append(st.ghz, c.CommandedGHz())
			st.mailbox = append(st.mailbox, p.MSRFile(i).Peek(msr.OCMailbox))
		}
		return st
	}
	before := snapshot()
	if before.mailbox[victim] == 0 {
		t.Fatal("set-up left MSR 0x150 clear; the case proves nothing")
	}
	g, err := sys.Characterize(plugvolt.QuickSweep())
	if err != nil {
		t.Fatal(err)
	}
	if g.Reboots == 0 {
		t.Fatal("grid crossed no crash cells; the case proves nothing")
	}
	after := snapshot()
	if after.now != before.now || after.reboots != before.reboots {
		t.Fatalf("platform clock/reboots moved: %v/%d -> %v/%d",
			before.now, before.reboots, after.now, after.reboots)
	}
	for i := range before.ghz {
		if after.ghz[i] != before.ghz[i] || after.mailbox[i] != before.mailbox[i] {
			t.Fatalf("core %d: commanded %.2f GHz / 0x150 %#x -> %.2f GHz / %#x", i,
				before.ghz[i], before.mailbox[i], after.ghz[i], after.mailbox[i])
		}
	}
}

func TestAttestationCarriesHTStatus(t *testing.T) {
	// 4C/8T parts attest hyperthreading enabled; the 4C/4T desktop does not.
	ht, err := plugvolt.NewSystem("kabylaker", 1)
	if err != nil {
		t.Fatal(err)
	}
	e1, _ := ht.Registry.Create("x", 0)
	if !e1.Attest(1).HyperThreadingEnabled {
		t.Fatal("kabylaker attestation missing HT flag")
	}
	noHT, err := plugvolt.NewSystem("skylake", 1)
	if err != nil {
		t.Fatal(err)
	}
	e2, _ := noHT.Registry.Create("x", 0)
	if e2.Attest(1).HyperThreadingEnabled {
		t.Fatal("skylake attestation claims HT")
	}
}
