package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"plugvolt/internal/telemetry/span"
)

// traceSpanCap bounds the harness span buffer; later spans are counted as
// dropped, as in the program's own tracer.
const traceSpanCap = 1 << 16

// tracedPhase runs fn with harness spans on the wall clock and a CPU
// profile, writes the spans as a Chrome trace and folded stacks under dir,
// and returns each module's share of the CPU samples.
func tracedPhase(h *harness, dir, base string, fn func() error) (map[string]float64, error) {
	profPath := filepath.Join(dir, base+".cpu.pprof")
	f, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	h.tr = span.NewTracer(h.wallClock, h.seed, traceSpanCap)
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	runErr := fn()
	pprof.StopCPUProfile()
	tr := h.tr
	h.tr = nil
	if err := f.Close(); err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, runErr
	}
	if err := writeFile(filepath.Join(dir, base+".trace.json"), tr.WriteChromeTrace); err != nil {
		return nil, err
	}
	if err := writeFile(filepath.Join(dir, base+".folded"), tr.WriteFolded); err != nil {
		return nil, err
	}
	out, err := pprofTraces(profPath)
	if err != nil {
		return nil, err
	}
	return foldSelfCPU(out)
}

func writeFile(path string, render func(io.Writer) error) error {
	var buf bytes.Buffer
	if err := render(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// pprofTraces prints every sampled stack of a CPU profile with the
// toolchain's pprof.
func pprofTraces(profPath string) ([]byte, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", profPath)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+filepath.Dir(profPath))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return out, nil
}

// foldSelfCPU charges each sample of `pprof -traces` output to the
// innermost plugvolt/internal/<module> frame and returns each module's
// share of all samples in percent. Samples with no such frame go to the
// harness (this package), to other plugvolt packages, or to runtime_bg.
func foldSelfCPU(traces []byte) (map[string]float64, error) {
	known := map[string]bool{}
	for _, m := range selfCPUModules {
		known[m] = true
	}
	shares := map[string]float64{}
	total := 0.0
	var weight float64
	var frames []string
	flush := func() {
		if weight > 0 {
			shares[chargeModule(frames, known)] += weight
			total += weight
		}
		weight, frames = 0, frames[:0]
	}
	sc := bufio.NewScanner(bytes.NewReader(traces))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inSample := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inSample = true
			continue
		}
		if !inSample {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if weight == 0 && len(frames) == 0 {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof -traces: sample weight %q: %v", fields[0], err)
			}
			weight = d.Seconds()
			fields = fields[1:]
			if len(fields) == 0 {
				continue
			}
		}
		frames = append(frames, fields[0])
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("pprof -traces: no samples")
	}
	for m := range shares {
		shares[m] = 100 * shares[m] / total
	}
	return shares, nil
}

// chargeModule picks the module a stack (innermost frame first) is charged
// to.
func chargeModule(frames []string, known map[string]bool) string {
	const internal = "plugvolt/internal/"
	for _, fn := range frames {
		if !strings.HasPrefix(fn, internal) {
			continue
		}
		pkg := fn[:strings.LastIndexByte(fn, '/')+1]
		rest := fn[len(pkg):]
		if i := strings.IndexByte(rest, '.'); i >= 0 {
			rest = rest[:i]
		}
		if known[rest] {
			return rest
		}
		return "other"
	}
	for _, fn := range frames {
		switch {
		case strings.HasPrefix(fn, "main."):
			return "harness"
		case strings.HasPrefix(fn, "plugvolt."), strings.HasPrefix(fn, "plugvolt/"):
			return "other"
		}
	}
	return "runtime_bg"
}
