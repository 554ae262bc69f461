package symreg

import (
	"fmt"
	"math"
	"testing"

	"besst/internal/perfmodel"
	"besst/internal/stats"
)

// Eval evaluates the tree on one input vector by recursive descent. It
// is the reference semantics the compiled program must reproduce bit
// for bit.
func (n *Node) Eval(vars []float64) float64 {
	switch n.Op {
	case OpConst:
		return n.Value
	case OpVar:
		return vars[n.VarIndex]
	case OpAdd:
		return n.L.Eval(vars) + n.R.Eval(vars)
	case OpSub:
		return n.L.Eval(vars) - n.R.Eval(vars)
	case OpMul:
		return n.L.Eval(vars) * n.R.Eval(vars)
	case OpDiv:
		d := n.R.Eval(vars)
		if math.Abs(d) < 1e-9 {
			return 1
		}
		return n.L.Eval(vars) / d
	case OpSq:
		v := n.L.Eval(vars)
		return v * v
	case OpCube:
		v := n.L.Eval(vars)
		return v * v * v
	case OpSqrt:
		return math.Sqrt(math.Abs(n.L.Eval(vars)))
	case OpLog:
		return math.Log1p(math.Abs(n.L.Eval(vars)))
	default:
		panic(fmt.Sprintf("symreg: unknown op %d", n.Op))
	}
}

// compiled readies a hand-built Fitted for evaluation, as Fit, Refit
// and JSON decoding do.
func compiled(f *Fitted) *Fitted {
	f.prog = compile(f.Expr)
	return f
}

// oracleRows are inputs chosen to reach every protected and
// non-finite case: exact zeros, divisors inside the |d| < 1e-9 guard
// (and just outside it), negatives for Sqrt and Log, magnitudes whose
// squares and cubes overflow to Inf, and Inf/NaN inputs themselves.
var oracleRows = [][]float64{
	{0, 0, 0},
	{1, 2, 3},
	{-1, -2.5, 0.5},
	{1e-10, -1e-10, 5e-10},
	{-9.99e-10, 1e-9, 1.0000001e-9},
	{1e-300, -1e-300, 0},
	{1e150, -1e150, 2},
	{1e300, 1e-300, -1e300},
	{math.Inf(1), 3, -0.0},
	{math.Inf(-1), math.NaN(), 1},
	{0.3, 7, -64},
	{123.456, 1e-12, -8e5},
}

// sameBits reports whether a and b have identical bit patterns, or are
// both NaN. NaN payloads are outside the contract: Go leaves them
// unspecified (the compiler may swap the operands of a commutative
// operation, and x86 propagates the first operand's payload), and every
// consumer treats any NaN prediction alike.
func sameBits(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestProgramMatchesTreeOracle compiles GP-shaped trees — random
// initializations plus the mutants and crossover children evolution
// produces — and requires every row's result to equal the recursive
// tree walk bit for bit, both column at a time over the whole batch
// (eval, the fitness path) and one row at a time (evalRow, the Predict
// path).
func TestProgramMatchesTreeOracle(t *testing.T) {
	const nvars = 3
	n := len(oracleRows)
	x := make([]float64, nvars*n)
	for i, row := range oracleRows {
		for j, v := range row {
			x[j*n+i] = v
		}
	}
	rng := stats.NewRNG(99)
	opt := Options{ConstMin: -2, ConstMax: 2}
	var (
		prog  program
		stack []float64
		prev  = randomTree(rng, nvars, 4, true, opt.ConstMin, opt.ConstMax)
		trees int
	)
	check := func(tree *Node) {
		trees++
		prog.compile(tree)
		if len(prog.code) != tree.Size() {
			t.Fatalf("program length %d, tree size %d", len(prog.code), tree.Size())
		}
		if need := prog.depth * n; cap(stack) < need {
			stack = make([]float64, need)
		}
		cols := prog.eval(x, n, stack[:prog.depth*n])
		for i, row := range oracleRows {
			want := tree.Eval(row)
			vars := append([]float64(nil), row...)
			single := prog.evalRow(vars, make([]float64, prog.depth))
			for _, got := range []float64{cols[i], single} {
				if !sameBits(got, want) {
					t.Fatalf("tree %s row %v: program %v (%#x), oracle %v (%#x)",
						tree.String([]string{"a", "b", "c"}), row,
						got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
	for i := 0; i < 4000; i++ {
		opt.ConstMin, opt.ConstMax = -2, 2
		if i%3 == 0 {
			opt.ConstMin, opt.ConstMax = -1e-9, 1e-9 // constants inside the Div guard
		}
		tree := randomTree(rng, nvars, 2+i%7, i%2 == 0, opt.ConstMin, opt.ConstMax)
		check(tree)
		check(mutate(tree, nvars, opt, rng))
		check(crossover(tree, prev, rng))
		prev = tree
	}
	if trees < 10000 {
		t.Fatalf("checked only %d trees", trees)
	}
}

// TestPredictAllocationFree pins the hot-path contract of the scalar
// prediction Monte Carlo sampling runs on every compute block.
func TestPredictAllocationFree(t *testing.T) {
	f := compiled(fittedFixture())
	p := perfmodel.Params{"a": 3, "b": 4}
	if allocs := testing.AllocsPerRun(100, func() { f.Predict(p) }); allocs != 0 {
		t.Fatalf("Predict allocates %v times per call", allocs)
	}
}
