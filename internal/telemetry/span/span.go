// Package span is the causal tracing layer of the telemetry subsystem: a
// deterministic, virtual-clock span tracer whose output is part of the
// repository's golden-artifact contract.
//
// A span is a named interval on a track (a logical timeline such as "guard",
// "kernel/plugvolt_guard", "msr/core1" or "attack") with a parent link that
// records causality: the guard's corrective mailbox write is a child of the
// intervention that decided it, which is a child of the poll that detected
// the unsafe operating point, which is a child of the kthread tick that ran
// the poll. That chain is exactly the temporal safety argument of the paper's
// countermeasure — the window between an unsafe `wrmsr 0x150` and the guard's
// rewrite — made machine-checkable (see internal/slo).
//
// Determinism rules, mirroring the rest of internal/telemetry:
//
//   - Timestamps come from an injected func() sim.Time; wall clocks never
//     appear. Span durations are either virtual-clock deltas (End) or
//     explicit CPU-cost charges (EndWithCost) — the latter because kthread
//     work charges stolen time without advancing the sim clock.
//   - Span IDs are derived from (seed, track, per-track sequence) via FNV-64a,
//     never from pointers, goroutine identity or randomness, so two
//     identically-seeded runs mint identical IDs.
//   - Exporters (see export.go) sort spans by (start, track, sequence) before
//     rendering, so export bytes are independent of emission interleaving —
//     in particular of the characterizer's worker count, provided emitters
//     use per-row tracks.
//
// All methods are nil-receiver safe: instrumented code holds a possibly-nil
// *Tracer and calls it unconditionally.
package span

import (
	"sort"
	"sync"

	"plugvolt/internal/sim"
)

// Clock produces the current virtual time. (*sim.Simulator).Now fits.
type Clock func() sim.Time

// ID identifies a span. The zero ID means "no span" (used for absent
// parents).
type ID uint64

// Span is one completed interval. Spans are immutable once recorded.
type Span struct {
	ID     ID
	Parent ID // zero when the span has no recorded parent
	Track  string
	Name   string
	Start  sim.Time
	Dur    sim.Duration
	// Attrs carries span metadata (core index, offset mV, outcome, ...).
	// Values should be JSON-friendly scalars.
	Attrs map[string]any
	// Seq is the span's per-track sequence number; together with Track it
	// totally orders spans minted on the same track and seeds the ID.
	Seq uint64
}

// DefaultCap bounds a tracer when the constructor gets cap <= 0. Spans past
// the cap are counted as dropped rather than evicting history, matching the
// journal's drop-newest policy: the opening of an experiment is usually the
// part worth keeping.
const DefaultCap = 1 << 16

// Tracer records spans. Construct with NewTracer; a nil *Tracer is a valid
// no-op sink.
type Tracer struct {
	mu      sync.Mutex
	clock   Clock
	seed    int64
	cap     int
	spans   []Span
	dropped uint64
	seqs    map[string]uint64
	// stack is the scope stack of currently-open span IDs; the top is the
	// parent of the next span started. The simulation core is single-threaded,
	// which makes a single stack a sound causality model; the mutex keeps the
	// race detector happy for concurrent readers (the obs server).
	stack []ID
}

// NewTracer builds a tracer stamped by clock, minting IDs from seed, bounded
// at cap spans (cap <= 0 selects DefaultCap). A nil clock stamps spans at
// time zero.
func NewTracer(clock Clock, seed int64, cap int) *Tracer {
	if cap <= 0 {
		cap = DefaultCap
	}
	return &Tracer{clock: clock, seed: seed, cap: cap, seqs: map[string]uint64{}}
}

// now reads the tracer clock.
func (t *Tracer) now() sim.Time {
	if t.clock == nil {
		return 0
	}
	return t.clock()
}

// FNV-64a parameters (matching hash/fnv); the hash is inlined here because
// fnv.New64a returns its state behind the hash.Hash64 interface, which heap-
// allocates on every mint — one allocation per span on the guard's poll path.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvUint64 folds v's little-endian bytes into h — byte-identical to writing
// the 8 bytes through hash/fnv.
func fnvUint64(h, v uint64) uint64 {
	for i := 0; i < 64; i += 8 {
		h ^= uint64(byte(v >> i))
		h *= fnvPrime64
	}
	return h
}

// mint allocates the next sequence number on track and derives the span ID
// from (seed, track, seq) via FNV-64a. Caller holds t.mu.
func (t *Tracer) mint(track string) (ID, uint64) {
	seq := t.seqs[track]
	t.seqs[track] = seq + 1
	h := fnvUint64(uint64(fnvOffset64), uint64(t.seed))
	for i := 0; i < len(track); i++ {
		h ^= uint64(track[i])
		h *= fnvPrime64
	}
	h = fnvUint64(h, seq)
	id := ID(h)
	if id == 0 { // reserve zero for "no span"
		id = 1
	}
	return id, seq
}

// record appends a completed span, honoring the cap. Caller holds t.mu.
func (t *Tracer) record(s Span) {
	if len(t.spans) >= t.cap {
		t.dropped++
		return
	}
	t.spans = append(t.spans, s)
}

// Scope is a span under construction, held by value for allocation-free hot
// paths: StartScope never heap-allocates, the Scope lives in the caller's
// frame. The trade-off is the contract on attrs — the map is retained by
// reference until the span is recorded at End/EndWithCost, so zero-alloc
// callers pass a preallocated map they never mutate afterwards (e.g. the
// guard's per-core poll attributes). The zero Scope (and any Scope from a
// nil tracer) absorbs all calls.
type Scope struct {
	t     *Tracer
	span  Span
	ended bool
}

// StartScope opens a span on track at the current virtual time, parented
// under the innermost span still open (the scope stack top), and returns it
// by value. Close it with End or EndWithCost; until then it is the parent of
// any span started beneath it. See Scope for the attrs aliasing contract.
func (t *Tracer) StartScope(track, name string, attrs map[string]any) Scope {
	return t.startScope(track, name, attrs, false)
}

// StartRootScope opens a span like StartScope but with no parent, regardless
// of the scope stack. Periodic work that interrupts whatever the simulator
// happens to be running — a kthread tick firing inside an attack campaign's
// RunFor — uses this so preemption is not mistaken for causality. Spans
// started beneath it still parent under it normally.
func (t *Tracer) StartRootScope(track, name string, attrs map[string]any) Scope {
	return t.startScope(track, name, attrs, true)
}

func (t *Tracer) startScope(track, name string, attrs map[string]any, root bool) Scope {
	if t == nil {
		return Scope{}
	}
	at := t.now()
	t.mu.Lock()
	id, seq := t.mint(track)
	var parent ID
	if !root {
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1]
		}
	}
	t.stack = append(t.stack, id)
	t.mu.Unlock()
	return Scope{t: t, span: Span{
		ID: id, Parent: parent, Track: track, Name: name,
		Start: at, Attrs: attrs, Seq: seq,
	}}
}

// ID reports the scope's span ID (zero on the zero Scope).
func (s *Scope) ID() ID { return s.span.ID }

// End closes the scope with a virtual-clock duration (now - start) and pops
// it from the scope stack. Ending twice is a no-op.
func (s *Scope) End() {
	if s.t == nil || s.ended {
		return
	}
	s.finish(s.t.now() - s.span.Start)
}

// EndWithCost closes the scope with an explicit duration — the CPU cost the
// work charged — instead of a clock delta. This is how kthread-side spans
// (polls, rdmsr/wrmsr steps) get nonzero durations: kernel work charges
// stolen time against the core without advancing the virtual clock, so a
// clock delta would always read zero. Ending twice is a no-op.
func (s *Scope) EndWithCost(d sim.Duration) {
	if s.t == nil || s.ended {
		return
	}
	if d < 0 {
		d = 0
	}
	s.finish(d)
}

func (s *Scope) finish(d sim.Duration) {
	s.ended = true
	s.span.Dur = d
	t := s.t
	t.mu.Lock()
	// Pop this span from the scope stack. Out-of-order ends (a parent ended
	// before a still-open child) are tolerated by unwinding to the span.
	for i := len(t.stack) - 1; i >= 0; i-- {
		if t.stack[i] == s.span.ID {
			t.stack = t.stack[:i]
			break
		}
	}
	t.record(s.span)
	t.mu.Unlock()
}

// Active is a heap-allocated Scope, returned by Start, that can also gain
// attributes before it ends (SetAttr). A nil *Active (from a nil tracer)
// absorbs all calls.
type Active struct{ Scope }

// Start opens a span like StartScope but returns it by pointer, for callers
// that set attributes as the work unfolds.
func (t *Tracer) Start(track, name string, attrs map[string]any) *Active {
	if t == nil {
		return nil
	}
	return &Active{t.startScope(track, name, attrs, false)}
}

// StartRoot opens a parentless span like StartRootScope, by pointer.
func (t *Tracer) StartRoot(track, name string, attrs map[string]any) *Active {
	if t == nil {
		return nil
	}
	return &Active{t.startScope(track, name, attrs, true)}
}

// ID reports the active span's ID (zero on nil).
func (a *Active) ID() ID {
	if a == nil {
		return 0
	}
	return a.Scope.ID()
}

// End closes the span like (*Scope).End; nil-safe.
func (a *Active) End() {
	if a != nil {
		a.Scope.End()
	}
}

// EndWithCost closes the span like (*Scope).EndWithCost; nil-safe.
func (a *Active) EndWithCost(d sim.Duration) {
	if a != nil {
		a.Scope.EndWithCost(d)
	}
}

// SetAttr attaches or overwrites one attribute before the span ends.
func (a *Active) SetAttr(key string, value any) {
	if a == nil || a.ended {
		return
	}
	a.t.mu.Lock()
	defer a.t.mu.Unlock()
	if a.span.Attrs == nil {
		a.span.Attrs = map[string]any{}
	}
	a.span.Attrs[key] = value
}

// Complete records an already-finished span in one call, parented under the
// current scope top. Use it for instantaneous or externally-timed work (an
// MSR write, a characterization row measured on its own private clock).
// It returns the minted ID so callers can reference the span.
func (t *Tracer) Complete(track, name string, start sim.Time, dur sim.Duration, attrs map[string]any) ID {
	if t == nil {
		return 0
	}
	if dur < 0 {
		dur = 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id, seq := t.mint(track)
	var parent ID
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.record(Span{ID: id, Parent: parent, Track: track, Name: name,
		Start: start, Dur: dur, Attrs: attrs, Seq: seq})
	return id
}

// Instant records a zero-duration span at the current virtual time.
func (t *Tracer) Instant(track, name string, attrs map[string]any) ID {
	if t == nil {
		return 0
	}
	return t.Complete(track, name, t.now(), 0, attrs)
}

// Spans returns a copy of the recorded spans in emission order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Len reports the number of retained spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Dropped reports spans rejected after the cap was reached.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Cap reports the tracer's span bound (0 on nil).
func (t *Tracer) Cap() int {
	if t == nil {
		return 0
	}
	return t.cap
}

// sorted returns the spans ordered by (Start, Track, Seq) — the canonical
// export order, total because Seq is unique per track.
func sorted(spans []Span) []Span {
	out := append([]Span(nil), spans...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Track != b.Track {
			return a.Track < b.Track
		}
		return a.Seq < b.Seq
	})
	return out
}
