package core

import (
	"errors"
	"fmt"

	"plugvolt/internal/cpu"
	"plugvolt/internal/search"
)

// bisectRow characterizes one frequency row on a private platform stack
// by onset bisection, falling back to a fresh linear sweep if any
// monotonicity check fails. The fallback rebuilds the row platform from
// scratch (the half-probed one may hold partial mailbox state or a crash),
// so its result is the sweep's result by construction.
func (sc *ShardedCharacterizer) bisectRow(row []Classification, freqKHz int, offs []int) rowResult {
	r := sc.onRowPlatform(freqKHz, func(ch *characterizer) error {
		return ch.bisectRowInto(row, freqKHz, offs)
	})
	if errors.Is(r.err, search.ErrNonMonotone) {
		fb := sc.sweepRow(row, freqKHz, offs)
		fb.probes += r.probes
		fb.fallback = true
		return fb
	}
	return r
}

// bisectRowInto classifies one frequency row with O(log N) measured probes
// instead of the sweep's O(N):
//
//  1. pin the row frequency through cpupower, exactly as the sweep does;
//  2. predict each cell's batch upset probabilities analytically
//     (cpu.Core.PredictProbabilities — no sim events) down to the first
//     predicted crash cell, requiring them to be non-decreasing with depth;
//  3. bisect for the measured fault onset inside the predicted non-crash
//     prefix, cross-checking every measured probe against its predicted
//     class;
//  4. verify the crash boundary: the deepest predicted non-crash cell must
//     measure non-Crash and the first predicted crash cell must measure
//     Crash — that one probe pays the same single reboot the sweep's first
//     crash cell does, keeping Grid.Reboots identical;
//  5. fill the row Safe / Fault / Crash from the verified onsets.
//
// Any contradiction — a predicted probability regression or a measured
// probe that disagrees with its prediction (an MSR hook or defense
// intercepting writes, say) — aborts with an error wrapping
// search.ErrNonMonotone so the caller can fall back to the linear sweep.
// Interference is thereby detectable exactly at probed cells; between
// probes the row's shape rests on the verified monotone model, which is
// the contract that makes O(log N) possible at all.
func (c *characterizer) bisectRowInto(row []Classification, freqKHz int, offs []int) error {
	// Line 9: set core frequency through cpupower.
	if err := c.cp.FrequencySet(c.cfg.VictimCore, freqKHz); err != nil {
		return fmt.Errorf("core: cpupower at %d kHz: %w", freqKHz, err)
	}
	n := len(offs)
	if n == 0 {
		return nil
	}
	core := c.P.Core(c.cfg.VictimCore)
	uF, uC := c.probeU(freqKHz)
	// Predict the row up to its first predicted Crash cell, predC: the fill
	// reads no deeper, just as the sweep measures no deeper, and the
	// monotone probabilities and fixed thresholds make the predicted row
	// Safe* Fault* Crash* by construction.
	pAnyF := make([]float64, n)
	pAnyC := make([]float64, n)
	predict := func(i int) Classification { return classifyCoupled(pAnyF[i], pAnyC[i], uF, uC) }
	predC := n
	for i, off := range offs {
		pf, pc := core.PredictProbabilities(c.class(), off)
		pAnyF[i] = cpu.BatchUpsetProbability(c.cfg.Iterations, pf)
		pAnyC[i] = cpu.BatchUpsetProbability(c.cfg.Iterations, pc)
		if i > 0 && (pAnyF[i] < pAnyF[i-1] || pAnyC[i] < pAnyC[i-1]) {
			return fmt.Errorf("core: predicted upset probability regresses at %d mV: %w",
				off, search.ErrNonMonotone)
		}
		if predict(i) == Crash {
			predC = i
			break
		}
	}
	// Measured probes, memoized (the boundary cells can be hit both by the
	// bisection and the explicit verification) and each cross-checked
	// against its prediction.
	cache := make(map[int]Classification, 16)
	measure := func(i int) (Classification, error) {
		if cls, ok := cache[i]; ok {
			return cls, nil
		}
		cls, err := c.measurePoint(freqKHz, offs[i])
		if err != nil {
			return cls, err
		}
		cache[i] = cls
		if want := predict(i); cls != want {
			return cls, fmt.Errorf("core: cell %d mV measured %s, predicted %s: %w",
				offs[i], cls, want, search.ErrNonMonotone)
		}
		return cls, nil
	}
	// Measured fault-onset bisection over the predicted non-crash prefix.
	// Probes stay out of the crash region, so no reboot happens mid-search.
	onset, _, err := search.BisectFirst(predC, func(i int) (bool, error) {
		cls, err := measure(i)
		return cls != Safe, err
	})
	if err != nil {
		return err
	}
	// Crash-boundary verification (step 4).
	if predC > 0 {
		if _, err := measure(predC - 1); err != nil {
			return err
		}
	}
	if predC < n {
		if _, err := measure(predC); err != nil {
			return err // includes "measured non-Crash": prediction mismatch
		}
		// The verified crash reboots the platform, exactly once per
		// crashing row — the same count the sweep accumulates.
		c.P.Reboot()
		c.resetCPUPower()
	}
	for i := range row {
		switch {
		case i >= predC:
			row[i] = Crash
		case i >= onset:
			row[i] = Fault
		default:
			row[i] = Safe
		}
	}
	return nil
}
