package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The committed BENCH_<n>.json artifacts must stay schema-equal: same
// top-level shape, same context fields, ns/op on every row, and a raw field
// whose benchstat rows cover every parsed benchmark (the drift this guards
// against: an older baseline whose raw text lacked the rows the harness now
// emits, silently breaking `benchstat old.txt new.txt`).

func repoArtifacts(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 2 {
		t.Fatalf("expected at least BENCH_0.json and BENCH_1.json, got %v", paths)
	}
	sort.Strings(paths)
	return paths
}

// schema reduces an artifact to its comparable shape.
func schema(t *testing.T, art *Artifact) string {
	t.Helper()
	ctx := make([]string, 0, len(art.Context))
	for k := range art.Context {
		ctx = append(ctx, k)
	}
	sort.Strings(ctx)
	for _, b := range art.Benchmarks {
		if b.Name == "" || b.Iterations <= 0 {
			t.Errorf("malformed benchmark row %+v", b)
		}
		if _, ok := b.Metrics["ns/op"]; !ok {
			t.Errorf("row %s lacks ns/op", b.Name)
		}
	}
	return fmt.Sprintf("context[%s] benchmarks[name iterations metrics(ns/op)] raw[%t]",
		strings.Join(ctx, " "), art.Raw != "")
}

func TestCommittedArtifactsSchemaEqual(t *testing.T) {
	paths := repoArtifacts(t)
	var ref string
	for _, p := range paths {
		art, err := load(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if len(art.Benchmarks) == 0 {
			t.Fatalf("%s: no benchmark rows", p)
		}
		s := schema(t, art)
		if ref == "" {
			ref = s
			continue
		}
		if s != ref {
			t.Errorf("%s schema %q != %s schema %q", p, s, paths[0], ref)
		}
	}
}

func TestRawFieldCoversEveryBenchmark(t *testing.T) {
	// The benchstat contract: every parsed row exists verbatim in raw, and
	// re-parsing raw yields exactly the same rows.
	for _, p := range repoArtifacts(t) {
		art, err := load(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		reparsed, err := parse(strings.NewReader(art.Raw))
		if err != nil {
			t.Fatalf("%s: reparse: %v", p, err)
		}
		if len(reparsed.Benchmarks) != len(art.Benchmarks) {
			t.Fatalf("%s: raw has %d benchmark rows, parsed view has %d — raw is stale",
				p, len(reparsed.Benchmarks), len(art.Benchmarks))
		}
		for i, b := range art.Benchmarks {
			if reparsed.Benchmarks[i].Name != b.Name {
				t.Fatalf("%s: row %d: raw says %s, parsed view says %s",
					p, i, reparsed.Benchmarks[i].Name, b.Name)
			}
		}
	}
}

func TestBaselinesShareBenchmarkSet(t *testing.T) {
	// The whole point of numbered baselines is longitudinal comparison:
	// later artifacts may add benchmarks as the suite grows (BENCH_2 added
	// the guard-poll and fleet rows), but must never silently drop one an
	// earlier baseline covers — the shared history stays comparable.
	paths := repoArtifacts(t)
	nameSet := func(art *Artifact) map[string]bool {
		set := map[string]bool{}
		for _, b := range art.Benchmarks {
			set[b.Name] = true
		}
		return set
	}
	var prev map[string]bool
	var prevPath string
	for _, p := range paths {
		art, err := load(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		ns := nameSet(art)
		for n := range prev {
			if !ns[n] {
				t.Errorf("%s dropped %s, which %s covers", p, n, prevPath)
			}
		}
		prev, prevPath = ns, p
	}
}

func TestCompareGateFlagsRegression(t *testing.T) {
	dir := t.TempDir()
	write := func(name, nsop string) string {
		p := filepath.Join(dir, name)
		doc := fmt.Sprintf(`{"context":{},"benchmarks":[
			{"name":"BenchmarkFig2SkyLakeCharacterization","iterations":300,"metrics":{"ns/op":%s}},
			{"name":"BenchmarkOther","iterations":300,"metrics":{"ns/op":100}}],"raw":"x"}`, nsop)
		if err := os.WriteFile(p, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	oldP := write("old.json", "1000")
	newP := write("new.json", "1300") // +30% on Fig2, Other unchanged

	var sb strings.Builder
	regressed, err := compareArtifacts(&sb, oldP, newP, 20, regexp.MustCompile("Fig2"), "ns/op")
	if err != nil {
		t.Fatal(err)
	}
	if len(regressed) != 1 || !strings.Contains(regressed[0], "Fig2") {
		t.Fatalf("regressed = %v, want the Fig2 benchmark", regressed)
	}
	if !strings.Contains(sb.String(), "REGRESSION") {
		t.Fatalf("report does not mark the regression:\n%s", sb.String())
	}

	// Under the threshold: quiet.
	okP := write("ok.json", "1100") // +10%
	regressed, err = compareArtifacts(&sb, oldP, okP, 20, regexp.MustCompile("Fig2"), "ns/op")
	if err != nil {
		t.Fatal(err)
	}
	if len(regressed) != 0 {
		t.Fatalf("within-threshold run flagged: %v", regressed)
	}

	// The gate regexp scopes enforcement: Other regressing 30% is reported
	// but not fatal when the gate only watches Fig2.
	otherP := write("other.json", "1000")
	doc := `{"context":{},"benchmarks":[
		{"name":"BenchmarkFig2SkyLakeCharacterization","iterations":300,"metrics":{"ns/op":1000}},
		{"name":"BenchmarkOther","iterations":300,"metrics":{"ns/op":200}}],"raw":"x"}`
	if err := os.WriteFile(otherP, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	regressed, err = compareArtifacts(&sb, oldP, otherP, 20, regexp.MustCompile("Fig2"), "ns/op")
	if err != nil {
		t.Fatal(err)
	}
	if len(regressed) != 0 {
		t.Fatalf("out-of-scope regression gated: %v", regressed)
	}
}

func TestCompareUnknownMetricFailsFastListingColumns(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "a.json")
	doc := `{"context":{},"benchmarks":[
		{"name":"BenchmarkX","iterations":300,"metrics":{"ns/op":100,"allocs/op":0}},
		{"name":"BenchmarkY","iterations":300,"metrics":{"ns/op":200,"J/op":0.5}}],"raw":"x"}`
	if err := os.WriteFile(p, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	_, err := compareArtifacts(&sb, p, p, 0, nil, "joules/op")
	if err == nil {
		t.Fatal("unknown metric accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"joules/op"`) {
		t.Fatalf("error does not name the bad metric: %v", err)
	}
	// Sorted union of every column either artifact reports.
	if !strings.Contains(msg, "J/op, allocs/op, ns/op") {
		t.Fatalf("error does not list the available columns: %v", err)
	}

	// A metric that exists still compares fine.
	if _, err := compareArtifacts(&sb, p, p, 0, nil, "J/op"); err != nil {
		t.Fatalf("known metric rejected: %v", err)
	}
}

// TestCompareNamesArtifactLackingMetric pins the diagnosis when only one
// side lacks the requested metric — e.g. a BENCH baseline recorded before
// probes/op existed: the error must name that artifact and its real
// columns, not claim no benchmarks are shared.
func TestCompareNamesArtifactLackingMetric(t *testing.T) {
	dir := t.TempDir()
	write := func(name, doc string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	oldP := write("old.json", `{"context":{},"benchmarks":[
		{"name":"BenchmarkBisectVsSweep/bisect","iterations":1,"metrics":{"ns/op":100}}],"raw":"x"}`)
	newP := write("new.json", `{"context":{},"benchmarks":[
		{"name":"BenchmarkBisectVsSweep/bisect","iterations":1,"metrics":{"ns/op":90,"probes/op":120}}],"raw":"x"}`)

	var sb strings.Builder
	_, err := compareArtifacts(&sb, oldP, newP, 0, nil, "probes/op")
	if err == nil {
		t.Fatal("metric missing from the baseline accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, oldP) {
		t.Fatalf("error does not name the artifact lacking the metric: %v", err)
	}
	if strings.Contains(msg, newP) {
		t.Fatalf("error blames the artifact that has the metric: %v", err)
	}
	if !strings.Contains(msg, `"probes/op"`) || !strings.Contains(msg, "ns/op") {
		t.Fatalf("error does not state the missing metric and the real columns: %v", err)
	}
	if strings.Contains(msg, "no common") {
		t.Fatalf("still the generic no-common-benchmarks error: %v", err)
	}

	// Swapped order: the error must follow the lacking artifact.
	_, err = compareArtifacts(&sb, newP, oldP, 0, nil, "probes/op")
	if err == nil || !strings.Contains(err.Error(), oldP) {
		t.Fatalf("swapped order does not name the lacking artifact: %v", err)
	}
}

// TestParseAttributesEachPackage feeds the output of a two-package
// `go test -bench` run: every result must carry the package it ran under,
// not the last "pkg:" header of the whole stream.
func TestParseAttributesEachPackage(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: plugvolt
cpu: Test CPU
BenchmarkAnnealTimeToFault-8   	       1	   2000 ns/op	  40.00 probes/op
PASS
ok  	plugvolt	0.1s
goos: linux
goarch: amd64
pkg: plugvolt/internal/core
cpu: Test CPU
BenchmarkBisectVsSweep/sweep-8 	       1	   3000 ns/op	6089 probes/op
BenchmarkBisectVsSweep/bisect-8	       1	   1000 ns/op	 284.0 probes/op
PASS
ok  	plugvolt/internal/core	0.1s
`
	art, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"BenchmarkAnnealTimeToFault":    "plugvolt",
		"BenchmarkBisectVsSweep/sweep":  "plugvolt/internal/core",
		"BenchmarkBisectVsSweep/bisect": "plugvolt/internal/core",
	}
	if len(art.Benchmarks) != len(want) {
		t.Fatalf("parsed %d results, want %d", len(art.Benchmarks), len(want))
	}
	for _, b := range art.Benchmarks {
		if b.Pkg != want[b.Name] {
			t.Errorf("%s: pkg %q, want %q", b.Name, b.Pkg, want[b.Name])
		}
	}
	// Artifacts written before results carried a package still load.
	dir := t.TempDir()
	old := filepath.Join(dir, "old.json")
	doc := `{"context":{"pkg":"plugvolt"},"benchmarks":[
		{"name":"BenchmarkX","iterations":1,"metrics":{"ns/op":1}}],"raw":"x"}`
	if err := os.WriteFile(old, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if a, err := load(old); err != nil || a.Benchmarks[0].Pkg != "" {
		t.Fatalf("old artifact: %v, %+v", err, a)
	}
}

// TestParseStripsProcsSuffix pins the GOMAXPROCS suffix handling: a fresh
// multi-core run parses to the suffix-free names of the committed
// baselines, with the suffix kept as procs, so -compare finds common
// benchmarks instead of exiting with "no common ns/op benchmarks".
func TestParseStripsProcsSuffix(t *testing.T) {
	in := `pkg: plugvolt
BenchmarkFig2SkyLakeCharacterization-2 	     300	   900000 ns/op
BenchmarkGuardPollSteadyState/poll-telemetry-off-16 	 2000	   700.0 ns/op
BenchmarkCharacterizeWorkers/8 	       1	  1000 ns/op
`
	art, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []Result{
		{Name: "BenchmarkFig2SkyLakeCharacterization", Procs: 2},
		{Name: "BenchmarkGuardPollSteadyState/poll-telemetry-off", Procs: 16},
		{Name: "BenchmarkCharacterizeWorkers/8", Procs: 0},
	}
	if len(art.Benchmarks) != len(want) {
		t.Fatalf("parsed %d results, want %d", len(art.Benchmarks), len(want))
	}
	for i, w := range want {
		if got := art.Benchmarks[i]; got.Name != w.Name || got.Procs != w.Procs {
			t.Errorf("row %d: %s procs %d, want %s procs %d", i, got.Name, got.Procs, w.Name, w.Procs)
		}
	}
	enc, err := json.Marshal(art.Benchmarks[2])
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(enc), "procs") {
		t.Fatalf("suffix-free row serializes procs: %s", enc)
	}

	dir := t.TempDir()
	fresh := filepath.Join(dir, "fresh.json")
	enc, err = json.Marshal(art)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fresh, enc, 0o644); err != nil {
		t.Fatal(err)
	}
	baseline := filepath.Join(dir, "baseline.json")
	doc := `{"context":{"pkg":"plugvolt"},"benchmarks":[
		{"name":"BenchmarkFig2SkyLakeCharacterization","iterations":300,"metrics":{"ns/op":1000000}}],"raw":"x"}`
	if err := os.WriteFile(baseline, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	regressed, err := compareArtifacts(&sb, baseline, fresh, 20, regexp.MustCompile("Fig2"), "ns/op")
	if err != nil {
		t.Fatalf("suffixed run does not compare against the suffix-free baseline: %v", err)
	}
	if len(regressed) != 0 {
		t.Fatalf("a 10%% faster run flagged: %v", regressed)
	}
}
