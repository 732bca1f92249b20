// End-to-end contracts of the flight recorder + incident forensics pipeline:
// a campaign that faults the victim must freeze a bundle whose pre-trigger
// history contains the unsafe MSR write that caused the fault, and the
// framed bundle bytes must be identical across independent runs of the same
// experiment — the property that makes an incident file diffable evidence
// rather than a log.
package plugvolt_test

import (
	"bytes"
	"testing"

	"plugvolt"
	"plugvolt/internal/attack"
	"plugvolt/internal/defense"
	"plugvolt/internal/flight"
	"plugvolt/internal/msr"
	"plugvolt/internal/telemetry"
)

// captureUnderAttack boots a fresh undefended system, rides a flight
// recorder along a plundervolt campaign, and returns the sealed bundles.
func captureUnderAttack(t *testing.T, seed int64) []*flight.Bundle {
	t.Helper()
	sys, err := plugvolt.NewSystem("skylake", seed)
	if err != nil {
		t.Fatal(err)
	}
	rec := sys.AttachFlightRecorder(0, 16)
	cm := defense.None{}
	if err := cm.Install(sys.Env()); err != nil {
		t.Fatal(err)
	}
	res, err := atkRun(t, sys, seed, cm.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Succeeded || res.FaultsObserved == 0 {
		t.Fatalf("undefended plundervolt must fault (succeeded=%v faults=%d)", res.Succeeded, res.FaultsObserved)
	}
	rec.Seal()
	return rec.Bundles()
}

func atkRun(t *testing.T, sys *plugvolt.System, seed int64, defName string) (*attack.Result, error) {
	t.Helper()
	return attack.DefaultPlundervolt(seed).Run(sys.Env(), defName)
}

// TestFlightBundleCapturedUnderAttack is the forensic acceptance contract:
// the bundle frozen by the victim's fault carries, strictly before the
// trigger record, the accepted unsafe mailbox write that produced it.
func TestFlightBundleCapturedUnderAttack(t *testing.T) {
	bundles := captureUnderAttack(t, 42)
	if len(bundles) == 0 {
		t.Fatal("faulting campaign captured no incident bundle")
	}
	b := bundles[0]
	if b.Cause != string(flight.CauseFault) {
		t.Fatalf("cause %q, want fault", b.Cause)
	}
	var faultOffset int64
	sawTrigger := false
	deepestBefore := int64(0)
	for _, r := range b.Records {
		switch r.Kind {
		case flight.KindFault:
			faultOffset = r.B
		case flight.KindTrigger:
			sawTrigger = true
		case flight.KindMailboxWrite:
			if !sawTrigger && r.Flag == flight.OutcomeAccepted && r.A < deepestBefore {
				deepestBefore = r.A
			}
		}
	}
	if !sawTrigger {
		t.Fatal("bundle carries no trigger record")
	}
	if faultOffset >= 0 {
		t.Fatalf("fault record blames offset %d, want a negative undervolt", faultOffset)
	}
	// The mailbox quantizes commanded offsets to ~1 mV units, so the write
	// that caused the fault may decode within 2 mV of the blamed offset.
	if d := deepestBefore - faultOffset; d < -2 || d > 2 {
		t.Fatalf("deepest accepted pre-trigger write %d mV does not explain the fault at %d mV",
			deepestBefore, faultOffset)
	}
	// Re-encode/decode round trip keeps the forensic bytes stable.
	enc, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b2, _, err := flight.DecodeBundle(enc)
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := b2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatal("bundle does not round-trip byte-identically")
	}
}

// TestFlightBundleByteIdenticalAcrossRuns freezes the determinism contract:
// two independent processes-worth of the same experiment (fresh system, same
// seed) must produce byte-identical framed incident files.
func TestFlightBundleByteIdenticalAcrossRuns(t *testing.T) {
	first, err := flight.EncodeAll(captureUnderAttack(t, 42))
	if err != nil {
		t.Fatal(err)
	}
	second, err := flight.EncodeAll(captureUnderAttack(t, 42))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("incident files diverge across identical runs")
	}
	other, err := flight.EncodeAll(captureUnderAttack(t, 43))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(first, other) {
		t.Fatal("different seeds produced identical incident files; capture is not recording the experiment")
	}
}

// TestSharedSetKeepsRecordersPerSystem is the shared-set contract: a
// telemetry set shared across systems (plugvolt-attack runs every
// combination on one) carries the recorder of the system last wired onto it,
// so a faulting campaign on a system without a recorder never lands records
// or incident bundles in another system's recorder.
func TestSharedSetKeepsRecordersPerSystem(t *testing.T) {
	a, err := plugvolt.NewSystem("skylake", 42)
	if err != nil {
		t.Fatal(err)
	}
	shared := telemetry.NewSet(a.Platform.Sim.Now, telemetry.DefaultJournalCap, 42)
	a.SetTelemetry(shared)
	recA := a.AttachFlightRecorder(0, 16)
	if err := a.Platform.WriteOffsetViaMSR(0, -20, msr.PlaneCore); err != nil {
		t.Fatal(err)
	}
	before := recA.Stats()
	if before.Records == 0 {
		t.Fatal("system A's recorder saw nothing")
	}

	b, err := plugvolt.NewSystem("skylake", 43)
	if err != nil {
		t.Fatal(err)
	}
	b.SetTelemetry(shared)
	if shared.Recorder() != nil {
		t.Fatal("shared set still carries system A's recorder after wiring system B")
	}
	res, err := atkRun(t, b, 43, defense.None{}.Name())
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultsObserved == 0 {
		t.Fatal("undefended campaign on B must fault to exercise the trigger path")
	}
	if after := recA.Stats(); after != before {
		t.Fatalf("running system B changed system A's recorder: %+v -> %+v", before, after)
	}
}
