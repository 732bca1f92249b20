// Package obs is the live exposition server: it puts the deterministic
// telemetry surfaces — Prometheus metrics, the event journal, the causal
// span trace, SLO health — behind plain HTTP so a running experiment can be
// watched with curl, Prometheus, or Perfetto instead of only post-mortem
// dump files.
//
// Endpoints:
//
//	/metrics        Prometheus text exposition (runs Collect first)
//	/events         event journal as JSONL; ?n=100 tails the last 100
//	/traces         Chrome trace-event JSON (load in Perfetto); ?format=folded
//	/healthz        JSON health document; 503 when an SLO is violated
//	/incidents      flight-recorder incident bundles; ?seq=N fetches one
//	/debug/pprof/*  standard Go profiling endpoints
//
// The simulator is not thread-safe and the server answers from its own
// goroutines, so Server.Lock (when set) is held for the duration of every
// handler that touches shared state; the driving loop must hold the same
// lock while advancing the simulation.
package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"plugvolt/internal/buildinfo"
	"plugvolt/internal/flight"
	"plugvolt/internal/sim"
	"plugvolt/internal/slo"
	"plugvolt/internal/telemetry"
)

// Server exposes one telemetry set over HTTP. Zero fields are tolerated:
// a nil Telemetry serves empty documents, a nil Watchdog omits the SLO
// section, a nil Lock skips locking.
type Server struct {
	// Telemetry is the set to expose. Its flight recorder, when set, backs
	// /incidents (bundle list + fetch) and the /healthz flight section (ring
	// utilization and capture counters).
	Telemetry *telemetry.Set
	// Collect, when set, is invoked before serving /metrics or /healthz so
	// pull-style gauges reflect the moment of the request (typically
	// System.CollectTelemetry).
	Collect func()
	// Watchdog, when set, is evaluated on /healthz; any violation turns the
	// response into 503 Service Unavailable.
	Watchdog *slo.Watchdog
	// Clock supplies the virtual time reported by /healthz and used as the
	// watchdog's evaluation window end.
	Clock func() sim.Time
	// Energy, when set, supplies the joule ledger /healthz reports: the
	// integrator's package/core totals and the kernel-attributed guard
	// energy broken down by CostKind (the power_energy_joules_total series,
	// surfaced here so health checks need not scrape /metrics).
	Energy func() *EnergyHealth
	// Lock, when set, is held across every handler body.
	Lock sync.Locker
}

func (s *Server) lock() func() {
	if s.Lock == nil {
		return func() {}
	}
	s.Lock.Lock()
	return s.Lock.Unlock
}

// Handler builds the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/traces", s.handleTraces)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/incidents", s.handleIncidents)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", s.handleIndex)
	return mux
}

// Start listens on addr (":0" picks a free port), serves in a background
// goroutine and returns the bound address. Shut the server down via the
// returned *http.Server.
func (s *Server) Start(addr string) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr().String(), nil
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "plugvolt observability endpoints:")
	fmt.Fprintln(w, "  /metrics        Prometheus text exposition")
	fmt.Fprintln(w, "  /events?n=100   event journal tail (JSONL)")
	fmt.Fprintln(w, "  /traces         Chrome trace JSON (?format=folded for flamegraphs)")
	fmt.Fprintln(w, "  /healthz        health + SLO status (JSON)")
	fmt.Fprintln(w, "  /incidents      flight-recorder incident bundles (?seq=N fetches one)")
	fmt.Fprintln(w, "  /debug/pprof/   Go profiling")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	defer s.lock()()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if s.Telemetry == nil {
		return
	}
	if s.Collect != nil {
		s.Collect()
	}
	if err := s.Telemetry.Registry().Snapshot().WritePrometheus(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	defer s.lock()()
	w.Header().Set("Content-Type", "application/x-ndjson")
	if s.Telemetry == nil {
		return
	}
	n := 0 // all
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			http.Error(w, "obs: n must be a non-negative integer", http.StatusBadRequest)
			return
		}
		n = v
	}
	if err := s.Telemetry.Events().WriteJSONLTail(w, n); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	defer s.lock()()
	tr := s.Telemetry.Spans() // nil-safe on a nil Set receiver
	switch format := r.URL.Query().Get("format"); format {
	case "", "chrome":
		w.Header().Set("Content-Type", "application/json")
		if err := tr.WriteChromeTrace(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	case "folded":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := tr.WriteFolded(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	default:
		http.Error(w, "obs: unknown format "+format, http.StatusBadRequest)
	}
}

// Health is the /healthz document.
type Health struct {
	Status string         `json:"status"` // "ok" or "degraded"
	Build  buildinfo.Info `json:"build"`
	NowPS  int64          `json:"now_ps"`
	// Journal and Spans report the bounded-buffer fill state; a non-zero
	// Dropped means the run outgrew its caps and exported artifacts are
	// incomplete.
	Journal BufferHealth  `json:"journal"`
	Spans   BufferHealth  `json:"spans"`
	SLO     *SLOHealth    `json:"slo,omitempty"`
	Energy  *EnergyHealth `json:"energy,omitempty"`
	// Flight reports the flight recorder's ring utilization and capture
	// counters when a recorder is attached.
	Flight *flight.Stats `json:"flight,omitempty"`
}

// BufferHealth describes one drop-newest bounded buffer.
type BufferHealth struct {
	Len     int    `json:"len"`
	Cap     int    `json:"cap"`
	Dropped uint64 `json:"dropped"`
}

// SLOHealth summarizes the watchdog evaluation. A degraded document names
// each breached rule with its bound and measured value (ViolatedRules) and
// carries the window's evaluation stats, so an operator sees which rule
// fired — and by how much — without re-scraping /metrics.
type SLOHealth struct {
	OK         bool     `json:"ok"`
	Violations []string `json:"violations,omitempty"`
	// ViolatedRules is the structured form of Violations: one entry per
	// breach, rule identity and numbers split out.
	ViolatedRules []ViolatedRule `json:"violated_rules,omitempty"`
	// Stats is what the evaluation window saw (poll counts, tail latencies,
	// dwell maxima, worst guard power), violated or not.
	Stats *SLOStats `json:"stats,omitempty"`
}

// ViolatedRule is one structured SLO breach.
type ViolatedRule struct {
	// Rule is the rule's display form with its bound (e.g.
	// "max_poll_gap<=400us"); Kind is the bare rule family name.
	Rule string `json:"rule"`
	Kind string `json:"kind"`
	// Core is the affected core, -1 when not core-specific.
	Core       int   `json:"core"`
	AtPS       int64 `json:"at_ps"`
	MeasuredPS int64 `json:"measured_ps"`
	// LimitPS is the duration bound (latency/gap/dwell kinds); BudgetW the
	// power bound (energy-budget kind). The inapplicable one is zero.
	LimitPS int64   `json:"limit_ps,omitempty"`
	BudgetW float64 `json:"budget_w,omitempty"`
	Detail  string  `json:"detail,omitempty"`
}

// SLOStats mirrors slo.Stats with a stable JSON schema.
type SLOStats struct {
	Polls            int     `json:"polls"`
	Interventions    int     `json:"interventions"`
	AcceptedWrites   int     `json:"accepted_writes"`
	UnsafeWrites     int     `json:"unsafe_writes"`
	GuardedWrites    int     `json:"guarded_writes"`
	Faults           int     `json:"faults"`
	PollLatencyP99PS int64   `json:"poll_latency_p99_ps"`
	MaxPollGapPS     int64   `json:"max_poll_gap_ps"`
	MaxUnsafeDwellPS int64   `json:"max_unsafe_dwell_ps"`
	UnclosedWindows  int     `json:"unclosed_windows"`
	MaxGuardPowerW   float64 `json:"max_guard_power_w"`
}

// EnergyHealth is the /healthz joule ledger: integrator totals plus the
// kernel-attributed guard energy (summed over cores) by cost kind. The
// per-kind values sum exactly to GuardJoules — the attribution-closure
// invariant, visible from a health probe.
type EnergyHealth struct {
	PackageJoules float64            `json:"package_joules"`
	CoresJoules   float64            `json:"cores_joules"`
	GuardJoules   float64            `json:"guard_joules"`
	GuardByKind   map[string]float64 `json:"guard_joules_by_kind,omitempty"`
}

// health assembles the document; split from the handler for tests.
func (s *Server) health() Health {
	h := Health{Status: "ok", Build: buildinfo.Get()}
	if s.Clock != nil {
		h.NowPS = int64(s.Clock())
	}
	if s.Telemetry != nil {
		j := s.Telemetry.Events()
		h.Journal = BufferHealth{Len: j.Len(), Cap: j.Cap(), Dropped: j.Dropped()}
		tr := s.Telemetry.Spans()
		h.Spans = BufferHealth{Len: tr.Len(), Cap: tr.Cap(), Dropped: tr.Dropped()}
	}
	if s.Watchdog != nil {
		end := sim.Time(0)
		if s.Clock != nil {
			end = s.Clock()
		}
		rep := s.Watchdog.Evaluate(end)
		sh := &SLOHealth{OK: rep.OK()}
		for _, v := range rep.Violations {
			sh.Violations = append(sh.Violations, v.String())
			sh.ViolatedRules = append(sh.ViolatedRules, ViolatedRule{
				Rule:       v.Rule.String(),
				Kind:       string(v.Rule.Kind),
				Core:       v.Core,
				AtPS:       int64(v.At),
				MeasuredPS: int64(v.Measured),
				LimitPS:    int64(v.Rule.Limit),
				BudgetW:    v.Rule.BudgetW,
				Detail:     v.Detail,
			})
		}
		sh.Stats = &SLOStats{
			Polls:            rep.Stats.Polls,
			Interventions:    rep.Stats.Interventions,
			AcceptedWrites:   rep.Stats.AcceptedWrites,
			UnsafeWrites:     rep.Stats.UnsafeWrites,
			GuardedWrites:    rep.Stats.GuardedWrites,
			Faults:           rep.Stats.Faults,
			PollLatencyP99PS: int64(rep.Stats.PollLatencyP99),
			MaxPollGapPS:     int64(rep.Stats.MaxPollGap),
			MaxUnsafeDwellPS: int64(rep.Stats.MaxUnsafeDwell),
			UnclosedWindows:  rep.Stats.UnclosedWindows,
			MaxGuardPowerW:   rep.Stats.MaxGuardPowerW,
		}
		h.SLO = sh
		if !rep.OK() {
			h.Status = "degraded"
		}
	}
	if s.Energy != nil {
		h.Energy = s.Energy()
	}
	if rec := s.Telemetry.Recorder(); rec != nil {
		st := rec.Stats()
		h.Flight = &st
	}
	return h
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	defer s.lock()()
	if s.Collect != nil {
		s.Collect()
	}
	h := s.health()
	w.Header().Set("Content-Type", "application/json")
	if h.Status != "ok" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(h)
}

// IncidentSummary is one /incidents list row.
type IncidentSummary struct {
	Seq       int    `json:"seq"`
	Cause     string `json:"cause"`
	Core      int    `json:"core"`
	TriggerPS int64  `json:"trigger_ps"`
	Detail    string `json:"detail,omitempty"`
	Records   int    `json:"records"`
	Model     string `json:"model"`
	Seed      int64  `json:"seed"`
}

// handleIncidents lists sealed incident bundles, or fetches one by
// sequence number: ?seq=N returns the bundle JSON, ?seq=N&format=framed the
// CRC-framed binary encoding (the -incidents-out file format).
func (s *Server) handleIncidents(w http.ResponseWriter, r *http.Request) {
	defer s.lock()()
	bundles := s.Telemetry.Recorder().Bundles()
	q := r.URL.Query().Get("seq")
	if q == "" {
		list := make([]IncidentSummary, 0, len(bundles))
		for _, b := range bundles {
			list = append(list, IncidentSummary{
				Seq: b.Seq, Cause: b.Cause, Core: b.Core, TriggerPS: b.TriggerPS,
				Detail: b.Detail, Records: len(b.Records), Model: b.Model, Seed: b.Seed,
			})
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(list)
		return
	}
	seq, err := strconv.Atoi(q)
	if err != nil {
		http.Error(w, "obs: seq must be an integer", http.StatusBadRequest)
		return
	}
	var found *flight.Bundle
	for _, b := range bundles {
		if b.Seq == seq {
			found = b
			break
		}
	}
	if found == nil {
		http.Error(w, fmt.Sprintf("obs: no incident with seq %d", seq), http.StatusNotFound)
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(found)
	case "framed":
		data, err := found.Encode()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(data)
	default:
		http.Error(w, "obs: unknown format "+format, http.StatusBadRequest)
	}
}
