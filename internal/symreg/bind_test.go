package symreg

import (
	"math"
	"testing"

	"besst/internal/perfmodel"
	"besst/internal/stats"
)

// refFittedSample is the per-draw Sample body Fitted shipped before
// parameters were bound once per call site.
func refFittedSample(f *Fitted, p perfmodel.Params, rng *stats.RNG) float64 {
	v := f.Predict(p)
	if f.ResidualSigma > 0 {
		v *= rng.LogNormal(0, f.ResidualSigma)
	}
	return v
}

func TestBoundFittedMatchesReference(t *testing.T) {
	// epr*ranks/2 + 0.5, scaled like a GP-fitted model.
	expr := &Node{Op: OpAdd,
		L: &Node{Op: OpDiv,
			L: &Node{Op: OpMul, L: &Node{Op: OpVar, VarIndex: 0}, R: &Node{Op: OpVar, VarIndex: 1}},
			R: &Node{Op: OpConst, Value: 2},
		},
		R: &Node{Op: OpConst, Value: 0.5},
	}
	p := perfmodel.Params{"epr": 15, "ranks": 216}
	for _, sigma := range []float64{0, 0.13} {
		f := compiled(&Fitted{
			Expr: expr, VarNames: []string{"epr", "ranks"}, ResidualSigma: sigma,
			XScale: []float64{10, 100}, YScale: 3,
		})
		bound := f.Bind(p)
		got, want := stats.NewRNG(5), stats.NewRNG(5)
		for i := 0; i < 64; i++ {
			g, w := bound.Sample(got), refFittedSample(f, p, want)
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("sigma %v draw %d = %v, want %v", sigma, i, g, w)
			}
			if *got != *want {
				t.Fatalf("sigma %v: RNG state diverged after draw %d", sigma, i)
			}
		}
	}
}
