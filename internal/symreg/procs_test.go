package symreg

import (
	"encoding/json"
	"math"
	"runtime"
	"testing"

	"besst/internal/stats"
)

// TestFitIndependentOfGOMAXPROCS pins the scoring determinism contract:
// fitness evaluation may run on any number of workers, but the fitted
// model is byte-identical to the single-worker fit.
func TestFitIndependentOfGOMAXPROCS(t *testing.T) {
	rng := stats.NewRNG(17)
	ds := Dataset{VarNames: []string{"x", "r"}}
	for _, x := range []float64{2, 4, 6, 8, 10} {
		for _, r := range []float64{8, 64, 216, 512} {
			ds.X = append(ds.X, []float64{x, r})
			ds.Y = append(ds.Y, (x*x+3*math.Log1p(r))*rng.LogNormal(0, 0.05))
		}
	}
	train, test := ds.Split(0.2, 3)
	opt := Options{Seed: 5, Generations: 30, PopSize: 128, Restarts: 2}

	fit := func(procs int) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		data, err := json.Marshal(Fit("surf", train, test, opt))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	one, two := fit(1), fit(2)
	if one != two {
		t.Fatalf("fit depends on GOMAXPROCS:\n1: %s\n2: %s", one, two)
	}
}
