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
func (sc *ShardedCharacterizer) bisectRow(memo *rowMemo, row []Classification, freqKHz int, offs []int) rowResult {
	r := sc.onRowPlatform(freqKHz, func(ch *characterizer) error {
		return ch.bisectRowInto(memo, row, freqKHz, offs)
	})
	if errors.Is(r.err, search.ErrNonMonotone) {
		fb := sc.sweepRow(memo, row, freqKHz, offs)
		fb.probes += r.probes
		fb.fallback = true
		return fb
	}
	return r
}

// rowMemoCap bounds the cells one row predicts. Two bisections over an
// N-cell row read at most 2⌈log₂(N+1)⌉ distinct cells and the boundary
// verification none beyond them (see bisectRowInto), which stays within 64
// for any offset axis shorter than 2³² cells.
const rowMemoCap = 64

// cellMemo is one predicted cell of a row: its batch-level upset
// probabilities and, once probed, its measured class.
type cellMemo struct {
	i              int
	pAnyF, pAnyC   float64
	measured       bool
	measuredClass  Classification
	predictedClass Classification
}

// rowMemo holds the predictions and measurements of the row a worker is
// classifying. Each worker owns one and reuses it for every row, so a row
// allocates nothing for its predictions.
type rowMemo struct {
	core   *cpu.Core
	class  cpu.Class
	iters  int
	uF, uC float64
	offs   []int
	cells  [rowMemoCap]cellMemo
	n      int
}

// reset starts a row: core is the victim core pinned at the row's ratio,
// uF and uC the row's probe thresholds.
func (m *rowMemo) reset(core *cpu.Core, class cpu.Class, iters int, uF, uC float64, offs []int) {
	m.core, m.class, m.iters, m.uF, m.uC, m.offs = core, class, iters, uF, uC, offs
	m.n = 0
}

// cell returns cell i's memo entry, predicting it on first use. A new
// prediction must be at least every shallower predicted cell's and at most
// every deeper one's, in both the fault and the crash probability;
// otherwise cell returns an error wrapping search.ErrNonMonotone.
func (m *rowMemo) cell(i int) (*cellMemo, error) {
	for k := range m.cells[:m.n] {
		if m.cells[k].i == i {
			return &m.cells[k], nil
		}
	}
	pf, pc := m.core.PredictProbabilities(m.class, m.offs[i])
	pAnyF := cpu.BatchUpsetProbability(m.iters, pf)
	pAnyC := cpu.BatchUpsetProbability(m.iters, pc)
	for _, o := range m.cells[:m.n] {
		if (o.i < i && (o.pAnyF > pAnyF || o.pAnyC > pAnyC)) ||
			(o.i > i && (o.pAnyF < pAnyF || o.pAnyC < pAnyC)) {
			return nil, fmt.Errorf("core: predicted upset probabilities at %d and %d mV are out of order: %w",
				m.offs[o.i], m.offs[i], search.ErrNonMonotone)
		}
	}
	e := &m.cells[m.n]
	m.n++
	*e = cellMemo{i: i, pAnyF: pAnyF, pAnyC: pAnyC,
		predictedClass: classifyCoupled(pAnyF, pAnyC, m.uF, m.uC)}
	return e, nil
}

// predicted returns cell i's predicted class.
func (m *rowMemo) predicted(i int) (Classification, error) {
	e, err := m.cell(i)
	if err != nil {
		return Safe, err
	}
	return e.predictedClass, nil
}

// bisectRowInto classifies one frequency row with O(log N) measured probes
// and O(log N) predictions instead of the sweep's O(N):
//
//  1. pin the row frequency through cpupower, exactly as the sweep does,
//     and draw the row's probe thresholds;
//  2. bisect for the predicted crash boundary predC, the first cell whose
//     predicted class (Core.PredictProbabilities, no sim events) is Crash;
//  3. bisect for the measured fault onset inside the predicted non-crash
//     prefix [0, predC), cross-checking every measured probe against its
//     predicted class;
//  4. verify the crash boundary: the deepest predicted non-crash cell must
//     measure non-Crash and the first predicted crash cell must measure
//     Crash — that one probe pays the same single reboot the sweep's first
//     crash cell does, keeping Grid.Reboots identical;
//  5. fill the row Safe / Fault / Crash from the verified onsets.
//
// Predictions are evaluated lazily and memoized in memo, so each cell the
// two bisections and the verification read is predicted once; steps 2 and 3
// read at most 2⌈log₂(N+1)⌉ cells between them, and BisectFirst's boundary
// adjacency means step 4 reads no new one.
//
// Skipping the unread cells rests on a lemma. The predicted probability of
// a path is Φ(−slack/σ), with slack = T_clk − T_setup − T_eps −
// depth·K·V/(V−Vth)^α. For K > 0, 0 < Vth < V, 1 ≤ α ≤ 2, depth > 0 and
// σ ≥ 0, which timing.Circuit.Validate enforces for every circuit, the
// unit delay K·V/(V−Vth)^α is strictly decreasing in V: its log-derivative
// is 1/V − α/(V−Vth) < 0 because α·V > V − Vth, and at V ≤ Vth it is +Inf,
// which keeps the order. The mailbox quantization is
// monotone in the offset, and Φ and 1−(1−p)^n are non-decreasing, so both
// batch probabilities are non-decreasing in undervolt depth and, against
// the row's fixed thresholds, the predicted row is Safe* Fault* Crash*.
// Floating point could in principle break that, so every newly predicted
// cell is checked against every cell predicted before it (rowMemo.cell),
// and TestLazyPredictionMatchesFullScan checks the shipped models
// exhaustively against the full prediction scan.
//
// Any contradiction — predicted probabilities out of order or a measured
// probe that disagrees with its prediction (an MSR hook or defense
// intercepting writes, say) — aborts with an error wrapping
// search.ErrNonMonotone so the caller can fall back to the linear sweep.
// Interference is thereby detectable exactly at probed cells; between
// probes the row's shape rests on the verified monotone model, which is
// the contract that makes O(log N) possible at all.
func (c *characterizer) bisectRowInto(memo *rowMemo, row []Classification, freqKHz int, offs []int) error {
	if err := c.pinRow(freqKHz); err != nil {
		return err
	}
	n := len(offs)
	if n == 0 {
		return nil
	}
	memo.reset(c.P.Core(c.cfg.VictimCore), c.class(), c.cfg.Iterations, c.uFault, c.uCrash, offs)
	// Step 2: the fill reads no deeper than predC, just as the sweep
	// measures no deeper than its first crash.
	predC, _, err := search.BisectFirst(n, func(i int) (bool, error) {
		cls, err := memo.predicted(i)
		return cls == Crash, err
	})
	if err != nil {
		return err
	}
	// Measured probes, memoized (the boundary cells can be hit both by the
	// bisection and the explicit verification) and each cross-checked
	// against its prediction.
	measure := func(i int) (Classification, error) {
		e, err := memo.cell(i)
		if err != nil {
			return Safe, err
		}
		if e.measured {
			return e.measuredClass, nil
		}
		cls, err := c.measurePoint(offs[i])
		if err != nil {
			return cls, err
		}
		e.measured, e.measuredClass = true, cls
		if cls != e.predictedClass {
			return cls, fmt.Errorf("core: cell %d mV measured %s, predicted %s: %w",
				offs[i], cls, e.predictedClass, search.ErrNonMonotone)
		}
		return cls, nil
	}
	// Step 3. Probes stay out of the crash region, so no reboot happens
	// mid-search.
	onset, _, err := search.BisectFirst(predC, func(i int) (bool, error) {
		cls, err := measure(i)
		return cls != Safe, err
	})
	if err != nil {
		return err
	}
	// Step 4.
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
