package symreg

import (
	"math"

	"besst/internal/par"
	"besst/internal/stats"
)

// instr is one step of a compiled expression. Leaves push a value;
// operators pop their operands and push the result.
type instr struct {
	op  Op
	val float64 // OpConst
	v   int     // OpVar
}

// program is an expression tree flattened to postfix order. Evaluating
// it applies, to every row, exactly the floating-point operations of a
// recursive tree walk in the same order — operands are pure, so
// evaluating both before applying the operator cannot change a result,
// including for the protected Div, Sqrt and Log cases.
type program struct {
	code  []instr
	depth int // maximum stack height in values
}

// compile flattens t into a new program.
func compile(t *Node) program {
	var p program
	p.compile(t)
	return p
}

// compile overwrites p with t's program, reusing p's code buffer.
func (p *program) compile(t *Node) {
	p.code = p.code[:0]
	p.depth = 0
	p.emit(t, 0)
}

// emit appends n's postfix code; h is the stack height before it runs.
func (p *program) emit(n *Node, h int) {
	if n.L != nil {
		p.emit(n.L, h)
	}
	if n.R != nil {
		p.emit(n.R, h+1)
	}
	p.code = append(p.code, instr{op: n.Op, val: n.Value, v: n.VarIndex})
	if h+1 > p.depth {
		p.depth = h + 1
	}
}

// eval runs the program over n rows, one instruction at a time across
// every row. x holds the inputs column-major — variable j's values are
// x[j*n:(j+1)*n] — and stack is scratch for at least p.depth*n values.
// The result column aliases stack[:n].
//
//lint:hotpath
func (p *program) eval(x []float64, n int, stack []float64) []float64 {
	if len(p.code) == 0 {
		panic("symreg: evaluating an empty program")
	}
	sp := 0 // columns on the stack
	for _, in := range p.code {
		switch in.op {
		case OpConst:
			col := stack[sp*n : (sp+1)*n]
			for i := range col {
				col[i] = in.val
			}
			sp++
			continue
		case OpVar:
			copy(stack[sp*n:(sp+1)*n], x[in.v*n:(in.v+1)*n])
			sp++
			continue
		}
		top := stack[(sp-1)*n : sp*n]
		switch in.op {
		case OpSq:
			for i, v := range top {
				top[i] = v * v
			}
			continue
		case OpCube:
			for i, v := range top {
				top[i] = v * v * v
			}
			continue
		case OpSqrt:
			for i, v := range top {
				top[i] = math.Sqrt(math.Abs(v))
			}
			continue
		case OpLog:
			for i, v := range top {
				top[i] = math.Log1p(math.Abs(v))
			}
			continue
		}
		sp--
		a, b := stack[(sp-1)*n:sp*n], top[:n]
		switch in.op {
		case OpAdd:
			for i := range a {
				a[i] += b[i]
			}
		case OpSub:
			for i := range a {
				a[i] -= b[i]
			}
		case OpMul:
			for i := range a {
				a[i] *= b[i]
			}
		case OpDiv:
			for i, d := range b {
				if math.Abs(d) < 1e-9 {
					a[i] = 1
				} else {
					a[i] /= d
				}
			}
		default:
			panic("symreg: unknown op")
		}
	}
	return stack[:n]
}

// evalRow runs the program on one row of variables with a stack of at
// least p.depth values: the same operations as eval, without the
// per-instruction column bookkeeping that dominates at one row.
//
//lint:hotpath
func (p *program) evalRow(vars, stack []float64) float64 {
	if len(p.code) == 0 {
		panic("symreg: evaluating an empty program")
	}
	sp := 0 // values on the stack
	for _, in := range p.code {
		switch in.op {
		case OpConst:
			stack[sp] = in.val
			sp++
		case OpVar:
			stack[sp] = vars[in.v]
			sp++
		case OpAdd:
			sp--
			stack[sp-1] += stack[sp]
		case OpSub:
			sp--
			stack[sp-1] -= stack[sp]
		case OpMul:
			sp--
			stack[sp-1] *= stack[sp]
		case OpDiv:
			sp--
			if d := stack[sp]; math.Abs(d) < 1e-9 {
				stack[sp-1] = 1
			} else {
				stack[sp-1] /= d
			}
		case OpSq:
			v := stack[sp-1]
			stack[sp-1] = v * v
		case OpCube:
			v := stack[sp-1]
			stack[sp-1] = v * v * v
		case OpSqrt:
			stack[sp-1] = math.Sqrt(math.Abs(stack[sp-1]))
		case OpLog:
			stack[sp-1] = math.Log1p(math.Abs(stack[sp-1]))
		default:
			panic("symreg: unknown op")
		}
	}
	return stack[0]
}

// columns is a scaled dataset in column-major order, the layout
// program.eval reads.
type columns struct {
	x     []float64 // variable j's values are x[j*n:(j+1)*n]
	y     []float64
	zeroY []bool // rows MAPE skips: a zero target has no relative error
	n     int
}

// columnsOf divides each input column by xScale and every target by
// yScale — the normalization Fit estimates (dataScales) and Predict
// undoes — and transposes the inputs to column-major order.
func columnsOf(ds Dataset, xScale []float64, yScale float64) *columns {
	n := len(ds.X)
	c := &columns{
		x:     make([]float64, len(ds.VarNames)*n),
		y:     make([]float64, n),
		zeroY: make([]bool, n),
		n:     n,
	}
	for i, row := range ds.X {
		for j, v := range row {
			c.x[j*n+i] = v / xScale[j]
		}
		c.y[i] = ds.Y[i] / yScale
		c.zeroY[i] = stats.ApproxEqual(c.y[i], 0, 0)
	}
	return c
}

// scorer evaluates expressions over one dataset. Its program buffer
// and value stack are reused across every tree it scores, so one
// scorer must not be shared between goroutines.
type scorer struct {
	data  *columns
	prog  program
	stack []float64
}

// predict compiles t and returns its predictions for every row. The
// result aliases the scorer's stack until the next call.
func (s *scorer) predict(t *Node) []float64 {
	s.prog.compile(t)
	need := s.prog.depth * s.data.n
	if cap(s.stack) < need {
		s.stack = make([]float64, need)
	}
	return s.prog.eval(s.data.x, s.data.n, s.stack[:need])
}

// mape returns the mean absolute percentage error of t on the
// scorer's dataset, or +Inf for invalid predictions. Used as GP
// fitness (lower is better).
func (s *scorer) mape(t *Node) float64 {
	var sum float64
	n := 0
	for i, pred := range s.predict(t) {
		if math.IsNaN(pred) || math.IsInf(pred, 0) {
			return math.Inf(1)
		}
		if s.data.zeroY[i] {
			continue
		}
		y := s.data.y[i]
		sum += math.Abs((pred - y) / y)
		n++
	}
	if n == 0 {
		return math.Inf(1)
	}
	return 100 * sum / float64(n)
}

// residualSigma estimates the log-space standard deviation of
// measured/predicted ratios on the scorer's dataset.
func (s *scorer) residualSigma(t *Node) float64 {
	var logs []float64
	for i, pred := range s.predict(t) {
		y := s.data.y[i]
		if pred <= 0 || y <= 0 {
			continue
		}
		logs = append(logs, math.Log(y/pred))
	}
	if len(logs) < 2 {
		return 0
	}
	return stats.Summarize(logs).Std
}

// fitness scores GP populations on the training set with one scorer
// per worker of the par pool.
type fitness struct {
	scorers   []scorer
	parsimony float64
}

func newFitness(data *columns, parsimony float64) *fitness {
	f := &fitness{scorers: make([]scorer, par.Workers(0)), parsimony: parsimony}
	for i := range f.scorers {
		f.scorers[i].data = data
	}
	return f
}

// score fills in the fitness of every individual in pop. Workers take
// contiguous index ranges; scoring draws no random numbers, so the
// result does not depend on the worker count.
func (f *fitness) score(pop []individual) {
	ranges := par.Split(len(pop), len(f.scorers))
	par.ForEach(len(ranges), len(ranges), func(k int) {
		s := &f.scorers[k]
		for i := ranges[k].Lo; i < ranges[k].Hi; i++ {
			f.set(&pop[i], s.mape(pop[i].tree), len(s.prog.code))
		}
	})
}

// set records a raw MAPE and the parsimony-penalized fitness of a tree
// of the given node count.
func (f *fitness) set(ind *individual, raw float64, size int) {
	ind.rawMAPE = raw
	ind.fitness = raw + f.parsimony*float64(size)
}
