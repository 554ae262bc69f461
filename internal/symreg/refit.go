package symreg

import "fmt"

// Refit evolves an updated model for a grown training set, warm-started
// from a previously fitted expression. The surrogate-guided DSE search
// (internal/dse) refits once per round as fully simulated points
// accumulate; running Fit from scratch every round would spend most of
// the GP budget rediscovering the shape the previous round already
// found. The previous model's input/output scales are reused verbatim —
// they were estimated from a subset of the current rows and keep
// prev.Expr meaningful on the rescaled problem — so only the expression
// evolves. The first restart seeds its population with the previous
// winner and a band of its mutants; remaining restarts stay fully
// independent, so a stale shape cannot trap the search. A nil prev (or
// one whose scales don't match the current arity) falls back to a
// fresh Fit.
func Refit(prev *Fitted, train, test Dataset, opt Options) *Fitted {
	if prev == nil || prev.Expr == nil || len(prev.XScale) != len(train.VarNames) {
		label := ""
		if prev != nil {
			label = prev.Label
		}
		return Fit(label, train, test, opt)
	}
	train.Validate()
	return fitScaled(prev.Label, train, test, prev.XScale, defaultIfZero(prev.YScale, 1), opt, prev.Expr)
}

// PredictBatch evaluates the model at every row of xs — raw (unscaled)
// values in VarNames order — writing predictions into dst, which is
// grown only when its capacity falls short. One scratch row is reused
// across the whole batch, so ranking thousands of candidate
// design points per search round allocates nothing per point (unlike
// Predict, which needs a perfmodel.Params map per call).
func (f *Fitted) PredictBatch(xs [][]float64, dst []float64) []float64 {
	if cap(dst) < len(xs) {
		dst = make([]float64, len(xs))
	}
	dst = dst[:len(xs)]
	var buf [rowBuf]float64
	scratch := f.rowScratch(buf[:])
	for i, row := range xs {
		if len(row) != len(f.VarNames) {
			panic(fmt.Sprintf("symreg: batch row %d has %d values, want %d", i, len(row), len(f.VarNames)))
		}
		copy(scratch, row)
		dst[i] = f.predictRow(scratch)
	}
	return dst
}
