package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"plugvolt/internal/flight"
	"plugvolt/internal/sim"
)

// weakGuardFleet is a fleet whose guard polls far too slowly to stop
// plundervolt: every machine faults, so every machine's flight recorder
// captures an incident. This is the forensics scenario — the recorder
// exists to explain exactly these losses.
func weakGuardFleet() Config {
	cfg := Config{Machines: 4, Seed: 13, Attack: "plundervolt", FlightWindow: 8}
	cfg.Guard.PollPeriod = 20 * sim.Millisecond
	return cfg
}

// TestFleetIncidentsCaptured runs the forensics scenario end to end: every
// faulted machine contributes an incident, counts agree at every level, and
// each carried bundle decodes to the frozen pre-fault history — including
// the accepted unsafe mailbox write that caused the triggering fault.
func TestFleetIncidentsCaptured(t *testing.T) {
	rep, err := RunStream(StreamConfig{Config: weakGuardFleet()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Aggregate.AttacksSucceeded != rep.Aggregate.Machines {
		t.Fatalf("weak guard scenario: %d/%d attacks succeeded; incidents need faults",
			rep.Aggregate.AttacksSucceeded, rep.Aggregate.Machines)
	}
	if rep.Aggregate.Incidents == 0 {
		t.Fatal("no incidents captured across a faulting fleet")
	}
	modelTotal := 0
	for _, m := range rep.ModelRows {
		modelTotal += m.Incidents
	}
	if modelTotal != rep.Aggregate.Incidents {
		t.Fatalf("per-model incident counts sum to %d, aggregate says %d", modelTotal, rep.Aggregate.Incidents)
	}
	if len(rep.Incidents) != rep.Aggregate.Incidents {
		t.Fatalf("report retains %d incidents, aggregate counts %d (under the cap they must match)",
			len(rep.Incidents), rep.Aggregate.Incidents)
	}
	lastMachine := -1
	for _, inc := range rep.Incidents {
		if inc.Machine < lastMachine {
			t.Fatalf("incident list not in machine index order: %d after %d", inc.Machine, lastMachine)
		}
		lastMachine = inc.Machine
		if inc.Cause != string(flight.CauseFault) {
			t.Errorf("machine %d: cause %q, want fault", inc.Machine, inc.Cause)
		}
		b, n, err := flight.DecodeBundle(inc.Bundle)
		if err != nil {
			t.Fatalf("machine %d: carried bundle does not decode: %v", inc.Machine, err)
		}
		if n != len(inc.Bundle) {
			t.Errorf("machine %d: bundle has %d trailing bytes", inc.Machine, len(inc.Bundle)-n)
		}
		// The incident carries the fleet cycle name ("skylake"), the bundle the
		// spec codename ("Sky Lake") — both must be present and the
		// structural fields must agree.
		if b.Model == "" || len(b.Records) != inc.Records || b.Seq != inc.Seq {
			t.Errorf("machine %d: summary (%d records, seq %d) disagrees with bundle (%q, %d, %d)",
				inc.Machine, inc.Records, inc.Seq, b.Model, len(b.Records), b.Seq)
		}
		if b.Guard == nil || len(b.Guard.Thresholds) == 0 {
			t.Errorf("machine %d: bundle carries no guard unsafe-set view", inc.Machine)
		}
		// The forensic payoff: the pre-trigger history must contain the
		// accepted unsafe write that produced the fault — the deepest
		// undervolt on the ring, strictly before the trigger, within the
		// mailbox's ~1 mV unit quantization of the offset the fault record
		// blames.
		var faultOffset int64
		for _, r := range b.Records {
			if r.Kind == flight.KindFault {
				faultOffset = r.B
			}
		}
		if faultOffset >= 0 {
			t.Fatalf("machine %d: fault record blames offset %d, want a negative undervolt", inc.Machine, faultOffset)
		}
		var deepest int64
		for _, r := range b.Records {
			if r.Kind == flight.KindTrigger {
				break
			}
			if r.Kind == flight.KindMailboxWrite && r.Flag == flight.OutcomeAccepted && r.A < deepest {
				deepest = r.A
			}
		}
		if deepest == 0 {
			t.Errorf("machine %d: no accepted undervolt write before the trigger", inc.Machine)
		} else if d := deepest - faultOffset; d < -2 || d > 2 {
			t.Errorf("machine %d: deepest accepted write %d mV does not explain the fault at %d mV",
				inc.Machine, deepest, faultOffset)
		}
	}
}

// TestStreamIncidentsMatchReference extends the determinism contract to the
// carried bundles: for every batch/worker split (workers 1, 2 and 8), the
// full report JSON — framed incident bytes included — and the merged
// exposition must be byte-identical to the serial reference's.
func TestStreamIncidentsMatchReference(t *testing.T) {
	base := weakGuardFleet()
	want := referenceRun(t, base)
	if len(want.Incidents) == 0 {
		t.Fatal("scenario captured no incidents")
	}
	wantJSON, wantMetrics := renderStreamReport(t, want)
	for _, split := range []struct{ batch, workers int }{{1, 1}, {2, 2}, {4, 8}} {
		t.Run(fmt.Sprintf("batch=%d_workers=%d", split.batch, split.workers), func(t *testing.T) {
			cfg := StreamConfig{Config: base, Batch: split.batch}
			cfg.Workers = split.workers
			j, m := renderStream(t, cfg)
			if !bytes.Equal(j, wantJSON) {
				t.Error("report JSON (incl. incident bundles) diverges from the reference")
			}
			if !bytes.Equal(m, wantMetrics) {
				t.Error("merged exposition diverges from the reference")
			}
		})
	}
}

// TestStreamIncidentCheckpointResume kills the stream at a batch boundary
// and resumes with a different split: the incident collection must survive
// the checkpoint and the final report must be byte-identical to the
// uninterrupted run's.
func TestStreamIncidentCheckpointResume(t *testing.T) {
	base := weakGuardFleet()
	uncut := StreamConfig{Config: base, Batch: 2}
	wantJSON, wantMetrics := renderStream(t, uncut)

	path := filepath.Join(t.TempDir(), "fleet.ckpt")
	cut := uncut
	cut.CheckpointPath = path
	cut.Halt = func(p Progress) bool { return p.BatchesDone >= 1 }
	if _, err := RunStream(cut); !errors.Is(err, ErrHalted) {
		t.Fatalf("want ErrHalted, got %v", err)
	}
	ck, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Incidents) == 0 {
		t.Fatal("checkpoint carries no incidents from the completed batch")
	}
	for _, inc := range ck.Incidents {
		if _, _, err := flight.DecodeBundle(inc.Bundle); err != nil {
			t.Fatalf("machine %d: checkpointed bundle corrupt after JSON round trip: %v", inc.Machine, err)
		}
	}
	resumed := StreamConfig{Config: base, Batch: 1, Resume: ck}
	resumed.Workers = 2
	j, m := renderStream(t, resumed)
	if !bytes.Equal(j, wantJSON) {
		t.Error("resumed report JSON (incl. incidents) diverges from the uninterrupted run")
	}
	if !bytes.Equal(m, wantMetrics) {
		t.Error("resumed exposition diverges from the uninterrupted run")
	}
}

// TestFleetIncidentCap: a fleet with more captures than maxRecordedIncidents
// keeps exact counts while capping the verbatim list at the first
// maxRecordedIncidents incidents in machine index order.
func TestFleetIncidentCap(t *testing.T) {
	cfg := weakGuardFleet()
	cfg.Machines = maxRecordedIncidents + 4
	rep, err := RunStream(StreamConfig{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Aggregate.Incidents <= maxRecordedIncidents {
		t.Skipf("scenario produced only %d incidents; cap not exercised", rep.Aggregate.Incidents)
	}
	if len(rep.Incidents) != maxRecordedIncidents {
		t.Fatalf("retained %d incidents, want cap %d", len(rep.Incidents), maxRecordedIncidents)
	}
	for i, inc := range rep.Incidents {
		if i > 0 && inc.Machine < rep.Incidents[i-1].Machine {
			t.Fatal("capped list not in machine index order")
		}
	}
}

// TestFleetNoFlightNoIncidents: FlightWindow 0 must leave every incident
// surface absent — recording is strictly opt-in.
func TestFleetNoFlightNoIncidents(t *testing.T) {
	cfg := weakGuardFleet()
	cfg.FlightWindow = 0
	rep, err := RunStream(StreamConfig{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Aggregate.Incidents != 0 || len(rep.Incidents) != 0 {
		t.Fatalf("flight disabled but report carries %d/%d incidents",
			rep.Aggregate.Incidents, len(rep.Incidents))
	}
	j, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(j, []byte(`"incidents"`)) {
		t.Fatal("disabled recording still surfaces incident fields in the report JSON")
	}
}
