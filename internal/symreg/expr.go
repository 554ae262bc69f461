// Package symreg implements the symbolic-regression modeling method of
// the BE-SST Model Development phase (Chenna et al., "Multi-parameter
// performance modeling using symbolic regression"): a genetic program
// evolves expression trees over the system parameters until they fit
// the calibration samples, and the fitted expression becomes the
// performance model polled during simulation. This is the method used
// for the paper's case-study experiments.
package symreg

import (
	"fmt"
	"strings"

	"besst/internal/stats"
)

// Op enumerates expression-tree node kinds.
type Op int

// Node kinds. Const and Var are leaves; the rest are operators chosen
// to span the polynomial / surface-area / logarithmic scaling shapes
// coarse-grained HPC runtime models take.
const (
	OpConst Op = iota
	OpVar
	OpAdd
	OpSub
	OpMul
	OpDiv // protected: |denominator| < 1e-9 evaluates to 1
	OpSq
	OpCube
	OpSqrt // protected: sqrt(|x|)
	OpLog  // protected: log(1+|x|)
)

var binaryOps = []Op{OpAdd, OpSub, OpMul, OpDiv}
var unaryOps = []Op{OpSq, OpCube, OpSqrt, OpLog}

// Node is one expression-tree node. Leaves carry Value (OpConst) or
// VarIndex (OpVar); operators carry children.
type Node struct {
	Op       Op
	Value    float64
	VarIndex int
	L, R     *Node // R nil for unary ops
}

// Size returns the node count of the tree (parsimony pressure input).
func (n *Node) Size() int {
	if n == nil {
		return 0
	}
	return 1 + n.L.Size() + n.R.Size()
}

// Depth returns the height of the tree.
func (n *Node) Depth() int {
	if n == nil {
		return 0
	}
	l, r := n.L.Depth(), n.R.Depth()
	if r > l {
		l = r
	}
	return 1 + l
}

// Clone deep-copies the tree into one contiguous allocation.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	slab := make([]Node, 0, n.Size())
	return n.cloneInto(&slab)
}

// cloneInto appends a copy of the subtree at n to slab, whose capacity
// must hold it so that no append moves the nodes already placed.
func (n *Node) cloneInto(slab *[]Node) *Node {
	if n == nil {
		return nil
	}
	*slab = append(*slab, *n)
	c := &(*slab)[len(*slab)-1]
	c.L = n.L.cloneInto(slab)
	c.R = n.R.cloneInto(slab)
	return c
}

// String renders the expression with the given variable names.
func (n *Node) String(varNames []string) string {
	var b strings.Builder
	n.render(&b, varNames)
	return b.String()
}

func (n *Node) render(b *strings.Builder, names []string) {
	switch n.Op {
	case OpConst:
		fmt.Fprintf(b, "%.4g", n.Value)
	case OpVar:
		if n.VarIndex < len(names) {
			b.WriteString(names[n.VarIndex])
		} else {
			fmt.Fprintf(b, "x%d", n.VarIndex)
		}
	case OpAdd, OpSub, OpMul, OpDiv:
		op := map[Op]string{OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/"}[n.Op]
		b.WriteByte('(')
		n.L.render(b, names)
		b.WriteByte(' ')
		b.WriteString(op)
		b.WriteByte(' ')
		n.R.render(b, names)
		b.WriteByte(')')
	case OpSq, OpCube, OpSqrt, OpLog:
		fn := map[Op]string{OpSq: "sq", OpCube: "cube", OpSqrt: "sqrt", OpLog: "log1p"}[n.Op]
		b.WriteString(fn)
		b.WriteByte('(')
		n.L.render(b, names)
		b.WriteByte(')')
	}
}

// nodes flattens the tree in preorder for uniform subtree selection.
func (n *Node) nodes() []*Node {
	return n.appendNodes(make([]*Node, 0, 32))
}

func (n *Node) appendNodes(out []*Node) []*Node {
	if n == nil {
		return out
	}
	out = append(out, n)
	out = n.L.appendNodes(out)
	return n.R.appendNodes(out)
}

// randomTree generates a random tree up to the given depth. full forces
// operator nodes until depth runs out (the "full" half of ramped
// half-and-half initialization).
func randomTree(rng *stats.RNG, nvars, depth int, full bool, constMin, constMax float64) *Node {
	if depth <= 1 || (!full && rng.Float64() < 0.3) {
		// Leaf: variable or constant.
		if rng.Float64() < 0.6 {
			return &Node{Op: OpVar, VarIndex: rng.Intn(nvars)}
		}
		return &Node{Op: OpConst, Value: constMin + rng.Float64()*(constMax-constMin)}
	}
	if rng.Float64() < 0.7 {
		op := binaryOps[rng.Intn(len(binaryOps))]
		return &Node{
			Op: op,
			L:  randomTree(rng, nvars, depth-1, full, constMin, constMax),
			R:  randomTree(rng, nvars, depth-1, full, constMin, constMax),
		}
	}
	op := unaryOps[rng.Intn(len(unaryOps))]
	return &Node{Op: op, L: randomTree(rng, nvars, depth-1, full, constMin, constMax)}
}
