package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"plugvolt/internal/flight"
	"plugvolt/internal/sim"
	"plugvolt/internal/slo"
	"plugvolt/internal/telemetry"
)

// fixture builds a server over a populated telemetry set.
func fixture(t *testing.T) (*Server, *sim.Time) {
	t.Helper()
	now := new(sim.Time)
	clock := func() sim.Time { return *now }
	set := telemetry.NewSet(clock, 16, 7)
	set.Registry().Counter("guard_polls_total", "polls", nil).Add(42)
	set.Registry().Gauge("platform_reboots", "reboots", nil).Set(3)
	*now = 1 * sim.Millisecond
	set.Events().Emit("guard_loaded", map[string]any{"period_us": 100})
	sp := set.Spans().Start("guard", "guard_poll", map[string]any{"core": 0})
	sp.EndWithCost(500 * sim.Nanosecond)
	return &Server{Telemetry: set, Clock: clock, Lock: &sync.Mutex{}}, now
}

func get(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

func TestMetricsEndpoint(t *testing.T) {
	srv, _ := fixture(t)
	collected := false
	srv.Collect = func() { collected = true }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !collected {
		t.Error("Collect not invoked")
	}
	for _, want := range []string{
		"# TYPE guard_polls_total counter",
		"guard_polls_total 42",
		"# TYPE platform_reboots gauge",
		"platform_reboots 3",
		"telemetry_journal_dropped_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}
}

func TestEventsEndpoint(t *testing.T) {
	srv, _ := fixture(t)
	for i := 0; i < 5; i++ {
		srv.Telemetry.Events().Emit("tick", map[string]any{"i": i})
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/events")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if n := strings.Count(strings.TrimSpace(body), "\n") + 1; n != 6 {
		t.Fatalf("got %d lines, want 6:\n%s", n, body)
	}
	// Every line must be valid JSON.
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		var doc map[string]any
		if err := json.Unmarshal([]byte(line), &doc); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
	}

	_, tail := get(t, ts, "/events?n=2")
	if n := strings.Count(strings.TrimSpace(tail), "\n") + 1; n != 2 {
		t.Fatalf("tail got %d lines, want 2:\n%s", n, tail)
	}
	if code, _ := get(t, ts, "/events?n=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad n: status %d, want 400", code)
	}
}

func TestTracesEndpoint(t *testing.T) {
	srv, _ := fixture(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/traces")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}

	code, folded := get(t, ts, "/traces?format=folded")
	if code != http.StatusOK || !strings.Contains(folded, "guard;guard_poll") {
		t.Fatalf("folded: status %d body %q", code, folded)
	}
	if code, _ := get(t, ts, "/traces?format=svg"); code != http.StatusBadRequest {
		t.Fatalf("unknown format: status %d, want 400", code)
	}
}

func TestHealthzEndpoint(t *testing.T) {
	srv, now := fixture(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var h Health
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("healthz not JSON: %v", err)
	}
	if h.Status != "ok" {
		t.Fatalf("status %q", h.Status)
	}
	if h.NowPS != int64(*now) {
		t.Errorf("now_ps = %d, want %d", h.NowPS, int64(*now))
	}
	if h.Build.GoVersion == "" {
		t.Error("missing build go_version")
	}
	if h.Journal.Len != 1 || h.Journal.Cap != 16 {
		t.Errorf("journal health %+v", h.Journal)
	}
	if h.Spans.Len != 1 {
		t.Errorf("spans health %+v", h.Spans)
	}
	if h.SLO != nil {
		t.Error("unexpected slo section without a watchdog")
	}
}

func TestHealthzDegradedOnSLOViolation(t *testing.T) {
	srv, now := fixture(t)
	// One poll at 1ms, then silence until 100ms: a stall for the watchdog.
	*now = 100 * sim.Millisecond
	srv.Watchdog = &slo.Watchdog{
		Telemetry: srv.Telemetry,
		Rules:     slo.DefaultRules(100 * sim.Microsecond),
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", code, body)
	}
	var h Health
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("healthz not JSON: %v", err)
	}
	if h.Status != "degraded" || h.SLO == nil || h.SLO.OK || len(h.SLO.Violations) == 0 {
		t.Fatalf("degraded doc wrong: %s", body)
	}
}

func TestJournalDropCountSurfaces(t *testing.T) {
	srv, _ := fixture(t)
	// Overflow the 16-event journal; drop-newest keeps the first 16.
	for i := 0; i < 40; i++ {
		srv.Telemetry.Events().Emit("flood", map[string]any{"i": i})
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, body := get(t, ts, "/healthz")
	var h Health
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.Journal.Dropped == 0 {
		t.Fatalf("healthz does not surface journal drops: %s", body)
	}
	// The same count must appear as a counter on /metrics (satellite 1).
	_, metrics := get(t, ts, "/metrics")
	if !strings.Contains(metrics, "telemetry_journal_dropped_total 25") {
		t.Fatalf("drop counter missing from metrics:\n%s", metrics)
	}
}

func TestPprofAndIndex(t *testing.T) {
	srv, _ := fixture(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code, body := get(t, ts, "/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index: status %d", code)
	}
	if code, body := get(t, ts, "/"); code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Fatalf("index: status %d body %q", code, body)
	}
	if code, _ := get(t, ts, "/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown path: status %d, want 404", code)
	}
}

func TestStartBindsEphemeralPort(t *testing.T) {
	srv, _ := fixture(t)
	httpSrv, addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer httpSrv.Close()
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestNilTelemetryServesEmpty(t *testing.T) {
	srv := &Server{}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, path := range []string{"/metrics", "/events", "/healthz"} {
		if code, _ := get(t, ts, path); code != http.StatusOK {
			t.Errorf("%s on empty server: status %d", path, code)
		}
	}
}

// /healthz republishes the joule ledger when an energy source is attached
// — package/core totals, guard total, and the per-kind split summing to it
// — and omits the section entirely without one. Degradation still flows
// from the watchdog: an energy-budget violation turns the response 503.
func TestHealthzEnergySection(t *testing.T) {
	srv, now := fixture(t)
	*now = 10 * sim.Millisecond
	srv.Energy = func() *EnergyHealth {
		return &EnergyHealth{
			PackageJoules: 1.25,
			CoresJoules:   1.05,
			GuardJoules:   0.003,
			GuardByKind:   map[string]float64{"wake": 0.001, "rdmsr": 0.0015, "wrmsr": 0, "intervention": 0.0005},
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var h Health
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.Energy == nil {
		t.Fatal("energy section missing")
	}
	if h.Energy.PackageJoules != 1.25 || h.Energy.GuardJoules != 0.003 {
		t.Fatalf("energy section %+v", h.Energy)
	}
	var kindSum float64
	for _, v := range h.Energy.GuardByKind {
		kindSum += v
	}
	if kindSum != h.Energy.GuardJoules {
		t.Fatalf("per-kind joules %g do not sum to guard total %g", kindSum, h.Energy.GuardJoules)
	}

	// Energy-budget violation degrades the endpoint.
	srv.Watchdog = &slo.Watchdog{
		Rules:        []slo.Rule{slo.EnergyBudgetRule(0.100)},
		GuardEnergyJ: func(core int) float64 { return 0.002 }, // 200 mW over 10 ms
		NumCores:     1,
	}
	code, body = get(t, ts, "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("energy violation not degraded: status %d: %s", code, body)
	}
	if !strings.Contains(body, "guard_energy_budget") {
		t.Fatalf("violation detail missing: %s", body)
	}

	// No source: no section.
	srv.Energy = nil
	srv.Watchdog = nil
	_, body = get(t, ts, "/healthz")
	if strings.Contains(body, "package_joules") {
		t.Fatalf("energy section present without a source: %s", body)
	}
}

// flightFixture seals one captured incident into a recorder for the
// /incidents endpoint tests.
func flightFixture() *flight.Recorder {
	var now sim.Time
	rec := flight.NewRecorder(func() sim.Time { return now }, 64, 2, "skylake", 7)
	rec.SetGuardView(&flight.GuardView{Model: "skylake", BusMHz: 100,
		Thresholds: []flight.RatioThreshold{{Ratio: 30, ThresholdMV: -195}}})
	now = 5 * sim.Microsecond
	rec.MailboxWrite(1, -230, 0, flight.OutcomeAccepted, 11)
	now = 6 * sim.Microsecond
	rec.Fault(1, 1, -230)
	rec.Trigger(flight.CauseFault, 1, "test fault")
	rec.Seal()
	return rec
}

// TestIncidentsEndpoint covers the /incidents surface: the summary list,
// fetch-by-seq in JSON and framed form, and the error paths.
func TestIncidentsEndpoint(t *testing.T) {
	srv, _ := fixture(t)
	srv.Telemetry.Rec = flightFixture()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/incidents")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var list []IncidentSummary
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatalf("list not JSON: %v", err)
	}
	if len(list) != 1 || list[0].Seq != 1 || list[0].Cause != "fault" || list[0].Core != 1 {
		t.Fatalf("list %+v", list)
	}

	code, body = get(t, ts, "/incidents?seq=1")
	if code != http.StatusOK {
		t.Fatalf("fetch status %d", code)
	}
	var b flight.Bundle
	if err := json.Unmarshal([]byte(body), &b); err != nil {
		t.Fatalf("bundle not JSON: %v", err)
	}
	if b.Detail != "test fault" || len(b.Records) == 0 || b.Guard == nil {
		t.Fatalf("bundle %+v", b)
	}

	// The framed form is the -incidents-out byte format: it must decode.
	code, framed := get(t, ts, "/incidents?seq=1&format=framed")
	if code != http.StatusOK {
		t.Fatalf("framed status %d", code)
	}
	fb, n, err := flight.DecodeBundle([]byte(framed))
	if err != nil || n != len(framed) {
		t.Fatalf("framed fetch does not decode: %v (consumed %d of %d)", err, n, len(framed))
	}
	if fb.Detail != "test fault" {
		t.Fatalf("framed bundle %+v", fb)
	}

	if code, _ := get(t, ts, "/incidents?seq=99"); code != http.StatusNotFound {
		t.Fatalf("unknown seq: status %d, want 404", code)
	}
	if code, _ := get(t, ts, "/incidents?seq=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad seq: status %d, want 400", code)
	}
	if code, _ := get(t, ts, "/incidents?seq=1&format=yaml"); code != http.StatusBadRequest {
		t.Fatalf("bad format: status %d, want 400", code)
	}
}

// TestIncidentsEndpointWithoutRecorder: the endpoint stays useful (empty
// list) when no recorder is attached.
func TestIncidentsEndpointWithoutRecorder(t *testing.T) {
	srv, _ := fixture(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	code, body := get(t, ts, "/incidents")
	if code != http.StatusOK || strings.TrimSpace(body) != "[]" {
		t.Fatalf("status %d body %q, want 200 []", code, body)
	}
}

// TestHealthzFlightSection: with a recorder attached, /healthz reports ring
// utilization and capture counters.
func TestHealthzFlightSection(t *testing.T) {
	srv, _ := fixture(t)
	srv.Telemetry.Rec = flightFixture()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	_, body := get(t, ts, "/healthz")
	var h Health
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.Flight == nil {
		t.Fatalf("flight section missing: %s", body)
	}
	if h.Flight.Triggers != 1 || h.Flight.Captures != 1 || h.Flight.Bundles != 1 || h.Flight.Records == 0 {
		t.Fatalf("flight stats %+v", h.Flight)
	}
}

// TestHealthzDegradedBodyNamesViolatedRules is the structured-503 contract:
// the degraded body must name each violated rule (kind, bound, measured
// value) and carry the window stats, not just a prose summary.
func TestHealthzDegradedBodyNamesViolatedRules(t *testing.T) {
	srv, now := fixture(t)
	*now = 100 * sim.Millisecond
	srv.Watchdog = &slo.Watchdog{
		Telemetry: srv.Telemetry,
		Rules:     slo.DefaultRules(100 * sim.Microsecond),
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", code, body)
	}
	var h Health
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.SLO == nil || len(h.SLO.ViolatedRules) == 0 {
		t.Fatalf("degraded body carries no violated_rules: %s", body)
	}
	for _, vr := range h.SLO.ViolatedRules {
		if vr.Rule == "" || vr.Kind == "" {
			t.Fatalf("violated rule lacks identity: %+v", vr)
		}
		if vr.MeasuredPS == 0 && vr.Detail == "" {
			t.Fatalf("violated rule lacks a measured value: %+v", vr)
		}
	}
	if h.SLO.Stats == nil {
		t.Fatalf("degraded body carries no window stats: %s", body)
	}
	if h.SLO.Stats.Polls == 0 {
		t.Fatalf("stats did not count the fixture's poll span: %+v", h.SLO.Stats)
	}
}
