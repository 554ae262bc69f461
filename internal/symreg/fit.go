package symreg

import (
	"fmt"
	"math"

	"besst/internal/perfmodel"
	"besst/internal/stats"
)

// Dataset is a supervised regression problem: X rows of variable values
// and target runtimes Y.
type Dataset struct {
	VarNames []string
	X        [][]float64
	Y        []float64
}

// Validate panics on an unusable dataset.
func (d Dataset) Validate() {
	if len(d.VarNames) == 0 {
		panic("symreg: dataset has no variables")
	}
	if len(d.X) != len(d.Y) || len(d.X) == 0 {
		panic("symreg: dataset rows mismatched or empty")
	}
	for i, row := range d.X {
		if len(row) != len(d.VarNames) {
			panic(fmt.Sprintf("symreg: row %d has %d values, want %d", i, len(row), len(d.VarNames)))
		}
	}
}

// Split partitions the dataset into train and test subsets with the
// given test fraction, shuffled deterministically by seed. This is the
// paper's train/test protocol: "the benchmarking data is split into
// training data and testing data".
func (d Dataset) Split(testFrac float64, seed uint64) (train, test Dataset) {
	d.Validate()
	if testFrac < 0 || testFrac >= 1 {
		panic("symreg: test fraction out of [0,1)")
	}
	rng := stats.NewRNG(seed)
	perm := rng.Perm(len(d.X))
	nTest := int(float64(len(d.X)) * testFrac)
	train = Dataset{VarNames: d.VarNames}
	test = Dataset{VarNames: d.VarNames}
	for i, idx := range perm {
		if i < nTest {
			test.X = append(test.X, d.X[idx])
			test.Y = append(test.Y, d.Y[idx])
		} else {
			train.X = append(train.X, d.X[idx])
			train.Y = append(train.Y, d.Y[idx])
		}
	}
	return train, test
}

// Options configures the genetic program.
type Options struct {
	PopSize        int     // population size (default 256)
	Generations    int     // generations per restart (default 120)
	Restarts       int     // independent runs, best kept (default 4)
	MaxDepth       int     // hard tree-depth limit (default 7)
	TournamentK    int     // tournament size (default 5)
	ParsimonyCoeff float64 // fitness penalty per node, in MAPE points (default 0.05)
	CrossoverProb  float64 // default 0.7
	MutateProb     float64 // default 0.2 (remainder: reproduction)
	ConstMin       float64 // constant range (default 0)
	ConstMax       float64 // default 2
	Seed           uint64
	TargetMAPE     float64 // early stop when train MAPE falls below (default 0.5)
}

func (o Options) withDefaults() Options {
	if o.PopSize == 0 {
		o.PopSize = 256
	}
	if o.Generations == 0 {
		o.Generations = 120
	}
	if o.Restarts == 0 {
		o.Restarts = 4
	}
	if o.MaxDepth == 0 {
		o.MaxDepth = 7
	}
	if o.TournamentK == 0 {
		o.TournamentK = 5
	}
	o.ParsimonyCoeff = defaultIfZero(o.ParsimonyCoeff, 0.05)
	o.CrossoverProb = defaultIfZero(o.CrossoverProb, 0.7)
	o.MutateProb = defaultIfZero(o.MutateProb, 0.2)
	o.ConstMax = defaultIfZero(o.ConstMax, 2)
	o.TargetMAPE = defaultIfZero(o.TargetMAPE, 0.5)
	return o
}

// Fitted is a symbolic-regression performance model. It implements
// perfmodel.Model: Predict evaluates the fitted expression and its bound
// sampler adds multiplicative log-normal residual noise estimated from the
// training residuals, so Monte Carlo simulation reproduces the
// calibration variance. Build one with Fit, Refit or JSON decoding,
// which compile Expr for evaluation; Expr must not change afterwards.
type Fitted struct {
	Label         string
	Expr          *Node
	VarNames      []string
	TrainMAPE     float64 // percent
	TestMAPE      float64 // percent (NaN when no test set supplied)
	ResidualSigma float64 // log-space sigma of train residuals

	// XScale and YScale normalize the regression problem: the GP sees
	// inputs divided by XScale and targets divided by YScale, so its
	// constants stay O(1) regardless of whether runtimes are
	// nanoseconds or hours. Predict undoes the scaling.
	XScale []float64
	YScale float64

	prog program // Expr compiled
}

// rowBuf sizes the stack buffer Predict and PredictBatch evaluate one
// row in: the variable vector followed by the program's value stack,
// whose height is at most the tree depth. Models with more variables
// or deeper trees than the GP's defaults produce fall back to a heap
// slice.
const rowBuf = 16

// Predict implements perfmodel.Model. Every compiled instruction and
// every validation point calls it, so the row is evaluated in a stack
// buffer.
//
//lint:hotpath
func (f *Fitted) Predict(p perfmodel.Params) float64 {
	var buf [rowBuf]float64
	row := f.rowScratch(buf[:])
	for i, n := range f.VarNames {
		row[i] = p.Get(n)
	}
	return f.predictRow(row)
}

// rowScratch returns buf, or a heap slice when buf is too small to
// hold the variable vector and the value stack.
func (f *Fitted) rowScratch(buf []float64) []float64 {
	if need := len(f.VarNames) + f.prog.depth; need > len(buf) {
		return make([]float64, need)
	}
	return buf
}

// predictRow evaluates the model on the raw variable vector at the
// front of row, using the rest of row as the value stack.
func (f *Fitted) predictRow(row []float64) float64 {
	nv := len(f.VarNames)
	vars := row[:nv]
	if f.XScale != nil {
		for i := range vars {
			vars[i] /= f.XScale[i]
		}
	}
	v := f.prog.evalRow(vars, row[nv:])
	//lint:ignore floateq exactly zero YScale marks an unscaled legacy model
	if f.YScale != 0 {
		v *= f.YScale
	}
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return 0
	}
	return v
}

// Bind implements perfmodel.Model: draws are the prediction at p with
// multiplicative log-normal residual noise.
func (f *Fitted) Bind(p perfmodel.Params) perfmodel.Sampler {
	return perfmodel.Noisy{Value: f.Predict(p), Sigma: f.ResidualSigma}
}

// Name implements perfmodel.Model.
func (f *Fitted) Name() string { return f.Label }

// String renders the fitted expression.
func (f *Fitted) String() string { return f.Expr.String(f.VarNames) }

type individual struct {
	tree    *Node
	fitness float64 // MAPE + parsimony penalty
	rawMAPE float64
}

// Fit evolves a symbolic model for train, optionally evaluating held-out
// accuracy on test (pass a zero-value Dataset to skip). The best
// expression across restarts (by raw train MAPE) is returned.
func Fit(label string, train, test Dataset, opt Options) *Fitted {
	train.Validate()
	// Normalize the problem so the GP's constant range covers the
	// search space: divide each input by its mean magnitude and the
	// target by its mean. MAPE is scale-invariant in y, so reported
	// errors are unaffected.
	xScale, yScale := dataScales(train)
	return fitScaled(label, train, test, xScale, yScale, opt, nil)
}

// fitScaled runs the GP restarts on the problem scaled by xScale and
// yScale and builds the Fitted. A non-nil warm tree seeds the first
// restart (see evolve).
func fitScaled(label string, train, test Dataset, xScale []float64, yScale float64, opt Options, warm *Node) *Fitted {
	opt = opt.withDefaults()
	master := stats.NewRNG(opt.Seed)
	data := columnsOf(train, xScale, yScale)
	fit := newFitness(data, opt.ParsimonyCoeff)

	var best individual
	best.fitness = math.Inf(1)
	best.rawMAPE = math.Inf(1)
	for r := 0; r < opt.Restarts; r++ {
		cand := evolve(fit, len(train.VarNames), opt, master.Split(), warm)
		warm = nil
		if cand.rawMAPE < best.rawMAPE {
			best = cand
		}
		if best.rawMAPE < opt.TargetMAPE {
			break
		}
	}

	f := &Fitted{
		Label:     label,
		Expr:      best.tree,
		VarNames:  train.VarNames,
		TrainMAPE: best.rawMAPE,
		TestMAPE:  math.NaN(),
		XScale:    xScale,
		YScale:    yScale,
		prog:      compile(best.tree),
	}
	if len(test.Y) > 0 {
		ts := scorer{data: columnsOf(test, xScale, yScale)}
		f.TestMAPE = ts.mape(best.tree)
	}
	f.ResidualSigma = fit.scorers[0].residualSigma(best.tree)
	return f
}

// dataScales estimates the normalization Fit applies before evolving:
// each input column's mean magnitude and the target's mean magnitude.
// MAPE is scale-invariant in y, so reported errors are unaffected.
func dataScales(train Dataset) (xScale []float64, yScale float64) {
	xScale = make([]float64, len(train.VarNames))
	for j := range xScale {
		var s float64
		for _, row := range train.X {
			s += math.Abs(row[j])
		}
		s /= float64(len(train.X))
		xScale[j] = defaultIfZero(s, 1)
	}
	for _, y := range train.Y {
		yScale += math.Abs(y)
	}
	yScale /= float64(len(train.Y))
	return xScale, defaultIfZero(yScale, 1)
}

// evolve runs one GP restart and returns its best individual. A
// non-nil warm tree (already on the scaled problem) seeds the front of
// the initial population with itself and a band of its mutants — the
// incremental-refit path (Refit) warm-starts one restart this way so a
// grown training set doesn't pay for rediscovering the previous shape.
//
// Each generation is built serially from rng and then scored in
// parallel; scoring draws no random numbers and the best individual is
// found by an index-order scan, so the result is independent of the
// worker count.
func evolve(fit *fitness, nvars int, opt Options, rng *stats.RNG, warm *Node) individual {
	// Ramped half-and-half initialization across depths 2..MaxDepth,
	// with the warm seed (when given) occupying the first quarter.
	pop := make([]individual, opt.PopSize)
	for i := range pop {
		switch {
		case warm != nil && i == 0:
			pop[i].tree = warm.Clone()
		case warm != nil && i < opt.PopSize/4:
			pop[i].tree = mutate(warm, nvars, opt, rng)
		default:
			depth := 2 + i%(opt.MaxDepth-1)
			full := i%2 == 0
			pop[i].tree = randomTree(rng, nvars, depth, full, opt.ConstMin, opt.ConstMax)
		}
	}
	fit.score(pop)
	best := bestOf(pop[0], pop)

	tournament := func() individual {
		w := pop[rng.Intn(len(pop))]
		for i := 1; i < opt.TournamentK; i++ {
			c := pop[rng.Intn(len(pop))]
			if c.fitness < w.fitness {
				w = c
			}
		}
		return w
	}

	for gen := 0; gen < opt.Generations; gen++ {
		next := make([]individual, opt.PopSize)
		next[0] = best // elitism
		for i := 1; i < len(next); i++ {
			p1 := tournament()
			roll := rng.Float64()
			var child *Node
			switch {
			case roll < opt.CrossoverProb:
				child = crossover(p1.tree, tournament().tree, rng)
			case roll < opt.CrossoverProb+opt.MutateProb:
				child = mutate(p1.tree, nvars, opt, rng)
			default:
				child = p1.tree.Clone()
			}
			if child.Depth() > opt.MaxDepth {
				child = randomTree(rng, nvars, opt.MaxDepth, false, opt.ConstMin, opt.ConstMax)
			}
			next[i].tree = child
		}
		fit.score(next[1:])
		best = bestOf(best, next[1:])
		pop = next
		if best.rawMAPE < opt.TargetMAPE {
			break
		}
	}
	// Local constant refinement on the winner.
	return refineConstants(best, fit, rng)
}

// bestOf returns the fittest of best and pop, scanning in index order
// so the first of equally fit individuals wins.
func bestOf(best individual, pop []individual) individual {
	for _, ind := range pop {
		if ind.fitness < best.fitness {
			best = ind
		}
	}
	return best
}

// crossover is standard subtree crossover: it replaces a random node of
// a copy of a with a clone of a random subtree of b.
func crossover(a, b *Node, rng *stats.RNG) *Node {
	child := a.Clone()
	targets := child.nodes()
	donorNodes := b.nodes()
	target := targets[rng.Intn(len(targets))]
	donor := donorNodes[rng.Intn(len(donorNodes))].Clone()
	*target = *donor
	return child
}

// mutate applies one of: subtree replacement, constant jitter, or
// variable swap.
func mutate(t *Node, nvars int, opt Options, rng *stats.RNG) *Node {
	child := t.Clone()
	targets := child.nodes()
	target := targets[rng.Intn(len(targets))]
	switch rng.Intn(3) {
	case 0: // subtree replacement
		*target = *randomTree(rng, nvars, 3, false, opt.ConstMin, opt.ConstMax)
	case 1: // constant jitter (or inject a constant leaf)
		if target.Op == OpConst {
			target.Value *= math.Exp(rng.Normal(0, 0.3))
		} else {
			*target = Node{Op: OpConst, Value: opt.ConstMin + rng.Float64()*(opt.ConstMax-opt.ConstMin)}
		}
	default: // variable swap
		*target = Node{Op: OpVar, VarIndex: rng.Intn(nvars)}
	}
	return child
}

// refineConstants hill-climbs the constants of the best tree: each
// round perturbs one constant multiplicatively and keeps improvements.
func refineConstants(ind individual, fit *fitness, rng *stats.RNG) individual {
	consts := []*Node{}
	for _, n := range ind.tree.nodes() {
		if n.Op == OpConst {
			consts = append(consts, n)
		}
	}
	if len(consts) == 0 {
		return ind
	}
	bestMAPE := ind.rawMAPE
	for round := 0; round < 200; round++ {
		c := consts[rng.Intn(len(consts))]
		old := c.Value
		c.Value *= math.Exp(rng.Normal(0, 0.15))
		if m := fit.scorers[0].mape(ind.tree); m < bestMAPE {
			bestMAPE = m
		} else {
			c.Value = old
		}
	}
	fit.set(&ind, bestMAPE, ind.tree.Size())
	return ind
}

// defaultIfZero substitutes def when v is exactly zero — the unset
// sentinel for Options fields and data-driven scale factors.
func defaultIfZero(v, def float64) float64 {
	//lint:ignore floateq zero is the unset sentinel; only an exact zero means "use the default"
	if v == 0 {
		return def
	}
	return v
}
