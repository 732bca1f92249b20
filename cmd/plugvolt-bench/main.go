// plugvolt-bench converts `go test -bench` output into a JSON benchmark
// artifact and compares two such artifacts.
//
// The JSON carries the verbatim benchmark text in its "raw" field, so an
// artifact remains directly consumable by benchstat:
//
//	jq -r .raw BENCH_0.json > old.txt
//	jq -r .raw BENCH_1.json > new.txt
//	benchstat old.txt new.txt
//
// Usage:
//
//	go test -bench . -count 5 ./... | plugvolt-bench -o BENCH_1.json
//	plugvolt-bench -compare BENCH_0.json BENCH_1.json
//	plugvolt-bench -compare -match Fig2 -fail-over 20 BENCH_1.json NOW.json
//
// With -fail-over the comparison becomes a CI gate: exit status 4 when any
// benchmark selected by -match regresses its mean ns/op by more than the
// given percentage.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"plugvolt/internal/buildinfo"
)

// Artifact is the on-disk benchmark record. Raw preserves the exact
// benchstat-compatible text; Benchmarks is the parsed view for tooling that
// wants numbers without re-parsing.
type Artifact struct {
	// Context is the goos/goarch/pkg/cpu header lines keyed by field name.
	// A multi-package run repeats the headers; Context keeps the last of
	// each, and every Result records its own package in Pkg.
	Context map[string]string `json:"context"`
	// Benchmarks holds one entry per benchmark result line, in input order.
	Benchmarks []Result `json:"benchmarks"`
	// Raw is the verbatim `go test -bench` text the artifact was built from.
	Raw string `json:"raw"`
}

// Result is one parsed benchmark line.
type Result struct {
	// Name is the benchmark name without the "-N" GOMAXPROCS suffix go test
	// appends when N > 1, so runs on different core counts share names.
	Name string `json:"name"`
	// Procs is that stripped suffix; 0 when the line had none (a
	// GOMAXPROCS=1 run, or an artifact written before it existed).
	Procs int `json:"procs,omitempty"`
	// Pkg is the import path from the "pkg:" header the result ran under.
	// Artifacts written before it existed load with it empty.
	Pkg        string `json:"pkg,omitempty"`
	Iterations int64  `json:"iterations"`
	// Metrics maps unit to value, e.g. "ns/op": 845123.5, "allocs/op": 0.
	Metrics map[string]float64 `json:"metrics"`
}

func main() {
	out := flag.String("o", "", "write the JSON artifact to this file (default stdout)")
	compare := flag.Bool("compare", false, "compare two artifacts: plugvolt-bench -compare OLD.json NEW.json")
	failOver := flag.Float64("fail-over", 0, "with -compare: exit 4 if any matched benchmark's mean regresses by more than this percentage (0 = report only)")
	match := flag.String("match", "", "with -compare: regexp restricting which benchmarks the -fail-over gate applies to (default all)")
	metric := flag.String("metric", "ns/op", `with -compare: which per-op metric to compare and gate (e.g. "ns/op", "J/op", "allocs/op")`)
	version := flag.Bool("version", false, "print build information and exit")
	flag.Parse()
	if *version {
		buildinfo.Fprint(os.Stdout, "plugvolt-bench")
		return
	}

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: plugvolt-bench -compare [-fail-over PCT] [-match RE] OLD.json NEW.json")
			os.Exit(2)
		}
		gate, err := regexp.Compile(*match)
		if err != nil {
			fmt.Fprintln(os.Stderr, "plugvolt-bench: -match:", err)
			os.Exit(2)
		}
		regressed, err := compareArtifacts(os.Stdout, flag.Arg(0), flag.Arg(1), *failOver, gate, *metric)
		if err != nil {
			fmt.Fprintln(os.Stderr, "plugvolt-bench:", err)
			os.Exit(1)
		}
		if len(regressed) > 0 {
			fmt.Fprintf(os.Stderr, "plugvolt-bench: %d benchmark(s) regressed beyond %.1f%%: %s\n",
				len(regressed), *failOver, strings.Join(regressed, ", "))
			os.Exit(4)
		}
		return
	}

	art, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "plugvolt-bench:", err)
		os.Exit(1)
	}
	if len(art.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "plugvolt-bench: no benchmark lines found on stdin")
		os.Exit(1)
	}
	enc, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "plugvolt-bench:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "plugvolt-bench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d benchmark lines)\n", *out, len(art.Benchmarks))
}

// parse reads `go test -bench` text, keeping every line in Raw and lifting
// header and Benchmark lines into structured fields.
func parse(r io.Reader) (*Artifact, error) {
	art := &Artifact{Context: map[string]string{}}
	var raw strings.Builder
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		raw.WriteString(line)
		raw.WriteByte('\n')
		for _, key := range []string{"goos", "goarch", "pkg", "cpu"} {
			if v, ok := strings.CutPrefix(line, key+":"); ok {
				art.Context[key] = strings.TrimSpace(v)
			}
		}
		if res, ok := parseBenchLine(line); ok {
			res.Pkg = art.Context["pkg"]
			art.Benchmarks = append(art.Benchmarks, res)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	art.Raw = raw.String()
	return art, nil
}

// parseBenchLine parses "BenchmarkName-8  100  123.4 ns/op  0 B/op ..."
// into a Result. Non-benchmark lines return ok=false.
func parseBenchLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	name, procs := splitProcs(fields[0])
	res := Result{Name: name, Procs: procs, Iterations: iters, Metrics: map[string]float64{}}
	// Remaining fields come in (value, unit) pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		res.Metrics[fields[i+1]] = v
	}
	if len(res.Metrics) == 0 {
		return Result{}, false
	}
	return res, true
}

// splitProcs splits go test's GOMAXPROCS suffix off a benchmark name:
// "BenchmarkX/y-8" is ("BenchmarkX/y", 8). A name without one is returned
// whole with procs 0.
func splitProcs(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i <= 0 {
		return name, 0
	}
	procs, err := strconv.Atoi(name[i+1:])
	if err != nil || procs <= 0 {
		return name, 0
	}
	return name[:i], procs
}

// compareArtifacts prints per-benchmark mean deltas for one metric between
// two artifacts and, when failOver > 0, returns the names matched by gate
// whose mean regressed beyond that percentage. The metric is any per-op unit
// benchmarks report — "ns/op" for runtime, "J/op" for the energy axis. It is
// a quick gate for CI and local runs; use benchstat on the raw fields for a
// statistically grounded comparison.
func compareArtifacts(w io.Writer, oldPath, newPath string, failOver float64, gate *regexp.Regexp, metric string) ([]string, error) {
	oldArt, err := load(oldPath)
	if err != nil {
		return nil, err
	}
	newArt, err := load(newPath)
	if err != nil {
		return nil, err
	}
	// Fail fast naming the artifact that lacks the requested metric, so a
	// stale baseline (recorded before a metric existed) is diagnosed as
	// such rather than surfacing as "no common benchmarks".
	for _, a := range []struct {
		path string
		art  *Artifact
	}{{oldPath, oldArt}, {newPath, newArt}} {
		if avail := availableMetrics(a.art); len(avail) > 0 && !contains(avail, metric) {
			return nil, fmt.Errorf("artifact %s has no %q metric; it reports: %s",
				a.path, metric, strings.Join(avail, ", "))
		}
	}
	oldMeans := means(oldArt, metric)
	newMeans := means(newArt, metric)
	names := make([]string, 0, len(oldMeans))
	for name := range oldMeans {
		if _, ok := newMeans[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no common %s benchmarks between %s and %s", metric, oldPath, newPath)
	}
	var regressed []string
	fmt.Fprintf(w, "%-50s %14s %14s %8s\n", "benchmark", "old "+metric, "new "+metric, "delta")
	for _, name := range names {
		o, n := oldMeans[name], newMeans[name]
		delta := (n - o) / o * 100
		mark := ""
		if failOver > 0 && delta > failOver && (gate == nil || gate.MatchString(name)) {
			regressed = append(regressed, name)
			mark = "  REGRESSION"
		}
		fmt.Fprintf(w, "%-50s %14.4g %14.4g %+7.1f%%%s\n", name, o, n, delta, mark)
	}
	return regressed, nil
}

// availableMetrics is the sorted union of metric columns either artifact's
// benchmarks report, so an unknown -metric fails fast naming the real ones
// instead of claiming no benchmarks are shared.
func availableMetrics(arts ...*Artifact) []string {
	set := map[string]bool{}
	for _, art := range arts {
		for _, b := range art.Benchmarks {
			for unit := range b.Metrics {
				set[unit] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for unit := range set {
		out = append(out, unit)
	}
	sort.Strings(out)
	return out
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func load(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	art := &Artifact{}
	if err := json.Unmarshal(data, art); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return art, nil
}

// means averages one metric per benchmark name across repeated -count runs;
// benchmarks that never report the metric are absent from the result.
func means(art *Artifact, metric string) map[string]float64 {
	sum := map[string]float64{}
	n := map[string]int{}
	for _, b := range art.Benchmarks {
		v, ok := b.Metrics[metric]
		if !ok {
			continue
		}
		sum[b.Name] += v
		n[b.Name]++
	}
	out := make(map[string]float64, len(sum))
	for name, s := range sum {
		out[name] = s / float64(n[name])
	}
	return out
}
