package span

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// This file renders the recorded spans in two interchange formats:
//
//   - Chrome trace-event JSON ("X" complete events plus "M" metadata
//     events), loadable in Perfetto (https://ui.perfetto.dev) or
//     chrome://tracing;
//   - folded flamegraph text (one "frame;frame;frame value" line per unique
//     causal path, self-time in virtual/CPU nanoseconds), consumable by
//     flamegraph.pl or speedscope.
//
// Both are rendered with deterministic ordering and number formatting so the
// bytes are identical across runs and across characterization worker counts,
// like every other artifact in this repository.

// trackPID groups tracks into Chrome "processes" by the track name's first
// path segment: "kernel/plugvolt_guard" and "kernel/attacker" share a pid.
func trackPID(track string) string {
	if i := strings.IndexByte(track, '/'); i >= 0 {
		return track[:i]
	}
	return track
}

// tsMicros renders a picosecond virtual time as the microsecond float the
// trace-event format expects, using the shortest exact decimal.
func tsMicros(ps int64) string {
	micros := ps / 1_000_000
	frac := ps % 1_000_000
	if frac == 0 {
		return strconv.FormatInt(micros, 10)
	}
	// Exact decimal: picoseconds have at most 6 fractional digits of a
	// microsecond, so format the remainder and trim trailing zeros.
	s := fmt.Sprintf("%d.%06d", micros, frac)
	return strings.TrimRight(s, "0")
}

// WriteChromeTrace renders every recorded span as a Chrome trace-event JSON
// document.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	spans := sorted(t.Spans())

	// Assign pids to track prefixes and tids to tracks, both in sorted order
	// so the numbering is independent of emission interleaving.
	trackSet := map[string]bool{}
	for _, s := range spans {
		trackSet[s.Track] = true
	}
	tracks := make([]string, 0, len(trackSet))
	for tr := range trackSet {
		tracks = append(tracks, tr)
	}
	sort.Strings(tracks)
	pids := map[string]int{}
	tids := map[string]int{}
	var prefixes []string
	for _, tr := range tracks {
		p := trackPID(tr)
		if _, ok := pids[p]; !ok {
			pids[p] = 0
			prefixes = append(prefixes, p)
		}
	}
	sort.Strings(prefixes)
	for i, p := range prefixes {
		pids[p] = i + 1
	}
	for i, tr := range tracks {
		tids[tr] = i + 1
	}

	bw := &errWriter{w: w}
	bw.str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")
	first := true
	emit := func(s string) {
		if !first {
			bw.str(",")
		}
		first = false
		bw.str("\n" + s)
	}
	// Metadata: name the processes and threads.
	for _, p := range prefixes {
		emit(fmt.Sprintf(`{"ph":"M","pid":%d,"tid":0,"name":"process_name","args":{"name":%q}}`, pids[p], p))
	}
	for _, tr := range tracks {
		emit(fmt.Sprintf(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":%q}}`,
			pids[trackPID(tr)], tids[tr], tr))
	}
	for _, s := range spans {
		args, err := spanArgs(s)
		if err != nil {
			return err
		}
		emit(fmt.Sprintf(`{"ph":"X","pid":%d,"tid":%d,"ts":%s,"dur":%s,"name":%q,"cat":%q,"args":%s}`,
			pids[trackPID(s.Track)], tids[s.Track],
			tsMicros(int64(s.Start)), tsMicros(int64(s.Dur)),
			s.Name, trackPID(s.Track), args))
	}
	bw.str("\n]}\n")
	return bw.err
}

// spanArgs renders a span's args object: span_id and parent_id first (hex,
// zero parent omitted), then attributes in sorted key order. json.Marshal on
// scalar values is deterministic, and encoding/json sorts map keys, so
// nested attribute values stay stable too.
func spanArgs(s Span) (string, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, `{"span_id":"%016x"`, uint64(s.ID))
	if s.Parent != 0 {
		fmt.Fprintf(&sb, `,"parent_id":"%016x"`, uint64(s.Parent))
	}
	keys := make([]string, 0, len(s.Attrs))
	for k := range s.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v, err := json.Marshal(s.Attrs[k])
		if err != nil {
			return "", fmt.Errorf("span: %s/%s attr %q: %w", s.Track, s.Name, k, err)
		}
		kb, _ := json.Marshal(k)
		sb.WriteByte(',')
		sb.Write(kb)
		sb.WriteByte(':')
		sb.Write(v)
	}
	sb.WriteByte('}')
	return sb.String(), nil
}

// WriteFolded renders the spans as folded flamegraph text: one line per
// unique causal path "track;name;name;... selfNanos", aggregated and sorted.
// Self time is the span's duration minus its children's (clamped at zero):
// kthread ticks charge the full tick cost while their poll children charge
// theirs, so subtracting avoids double counting in the flame view.
func (t *Tracer) WriteFolded(w io.Writer) error {
	var spans []Span
	if t != nil {
		spans = t.Spans()
	}
	spans = sorted(spans)
	byID := make(map[ID]*Span, len(spans))
	childDur := make(map[ID]int64, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	for i := range spans {
		if p := spans[i].Parent; p != 0 && byID[p] != nil {
			childDur[p] += int64(spans[i].Dur)
		}
	}
	agg := map[string]int64{}
	var frames []string
	for i := range spans {
		s := &spans[i]
		frames = frames[:0]
		// Walk to the root; depth-capped to stay safe against malformed
		// parent links.
		cur := s
		for depth := 0; cur != nil && depth < 64; depth++ {
			frames = append(frames, cur.Name)
			if cur.Parent == 0 {
				frames = append(frames, cur.Track)
				break
			}
			next := byID[cur.Parent]
			if next == nil {
				frames = append(frames, cur.Track)
			}
			cur = next
		}
		// frames is leaf..root; reverse into the folded root-first order.
		for l, r := 0, len(frames)-1; l < r; l, r = l+1, r-1 {
			frames[l], frames[r] = frames[r], frames[l]
		}
		self := int64(s.Dur) - childDur[s.ID]
		if self < 0 {
			self = 0
		}
		selfNanos := self / 1000 // ps -> ns
		agg[strings.Join(frames, ";")] += selfNanos
	}
	paths := make([]string, 0, len(agg))
	for p := range agg {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	bw := &errWriter{w: w}
	for _, p := range paths {
		bw.str(p + " " + strconv.FormatInt(agg[p], 10) + "\n")
	}
	return bw.err
}

// errWriter folds write errors into one sticky error.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) str(s string) {
	if e.err != nil {
		return
	}
	_, e.err = io.WriteString(e.w, s)
}
