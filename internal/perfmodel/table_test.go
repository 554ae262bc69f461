package perfmodel

import (
	"math"
	"testing"

	"besst/internal/stats"
)

func TestParamsGetAndKey(t *testing.T) {
	p := Params{"ranks": 64, "epr": 15}
	if p.Get("ranks") != 64 {
		t.Fatal("Get failed")
	}
	if p.Key() != "epr=15,ranks=64" {
		t.Fatalf("key = %q", p.Key())
	}
	c := p.Clone()
	c["ranks"] = 8
	if p["ranks"] != 64 {
		t.Fatal("Clone aliased the map")
	}
}

func TestParamsGetMissingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Params{}.Get("nope")
}

func TestConstantModel(t *testing.T) {
	m := Constant{Label: "fixed", Seconds: 2.5}
	if m.Predict(nil) != 2.5 || m.Bind(nil).Sample(stats.NewRNG(1)) != 2.5 {
		t.Fatal("constant model wrong")
	}
	if m.Name() != "fixed" {
		t.Fatal("name wrong")
	}
}

func TestFuncModelNoise(t *testing.T) {
	m := Func{Label: "f", F: func(p Params) float64 { return p.Get("x") * 2 }, NoiseSigma: 0.1}
	if m.Predict(Params{"x": 3}) != 6 {
		t.Fatal("predict wrong")
	}
	rng := stats.NewRNG(2)
	var sum float64
	const n = 20000
	s := m.Bind(Params{"x": 3})
	for i := 0; i < n; i++ {
		sum += s.Sample(rng)
	}
	// LogNormal(0, 0.1) has mean exp(0.005) ~ 1.005.
	if math.Abs(sum/n-6*math.Exp(0.005)) > 0.05 {
		t.Fatalf("noisy mean %v", sum/n)
	}
}

func TestTableExactLookup(t *testing.T) {
	tab := NewTable("k", "x")
	tab.Add(Params{"x": 1}, 10)
	tab.Add(Params{"x": 1}, 14)
	tab.Add(Params{"x": 2}, 20)
	if got := tab.Predict(Params{"x": 1}); got != 12 {
		t.Fatalf("exact predict = %v, want mean 12", got)
	}
	if tab.Points() != 2 {
		t.Fatalf("points = %d", tab.Points())
	}
	if s := tab.Samples(Params{"x": 1}); len(s) != 2 {
		t.Fatalf("samples = %v", s)
	}
	if tab.Samples(Params{"x": 9}) != nil {
		t.Fatal("missing combo should return nil samples")
	}
}

func TestTableLinearInterpolation1D(t *testing.T) {
	tab := NewTable("k", "x")
	tab.Add(Params{"x": 0}, 0)
	tab.Add(Params{"x": 10}, 100)
	if got := tab.Predict(Params{"x": 5}); math.Abs(got-50) > 1e-12 {
		t.Fatalf("interp = %v, want 50", got)
	}
	if got := tab.Predict(Params{"x": 2.5}); math.Abs(got-25) > 1e-12 {
		t.Fatalf("interp = %v, want 25", got)
	}
}

func TestTableExtrapolation(t *testing.T) {
	tab := NewTable("k", "x")
	tab.Add(Params{"x": 0}, 0)
	tab.Add(Params{"x": 10}, 100)
	// Above range: linear continuation supports prediction regions.
	if got := tab.Predict(Params{"x": 20}); math.Abs(got-200) > 1e-12 {
		t.Fatalf("extrapolated = %v, want 200", got)
	}
	// Below range undershoot clamps to zero.
	if got := tab.Predict(Params{"x": -100}); got != 0 {
		t.Fatalf("negative extrapolation should clamp: %v", got)
	}
}

func TestTableBilinearInterpolation(t *testing.T) {
	tab := NewTable("k", "x", "y")
	for _, pt := range []struct{ x, y, v float64 }{
		{0, 0, 0}, {10, 0, 10}, {0, 10, 20}, {10, 10, 30},
	} {
		tab.Add(Params{"x": pt.x, "y": pt.y}, pt.v)
	}
	// Center of a bilinear patch is the mean of the corners.
	if got := tab.Predict(Params{"x": 5, "y": 5}); math.Abs(got-15) > 1e-12 {
		t.Fatalf("bilinear center = %v, want 15", got)
	}
	// Edge midpoint.
	if got := tab.Predict(Params{"x": 5, "y": 0}); math.Abs(got-5) > 1e-12 {
		t.Fatalf("edge = %v, want 5", got)
	}
}

func TestTableSparseGridFallsBackToNearest(t *testing.T) {
	tab := NewTable("k", "x", "y")
	tab.Add(Params{"x": 0, "y": 0}, 1)
	tab.Add(Params{"x": 10, "y": 10}, 9)
	// Corner (10, 0) is missing; interpolation still returns something
	// finite between the stored values.
	got := tab.Predict(Params{"x": 10, "y": 0})
	if math.IsNaN(got) || got < 1 || got > 9 {
		t.Fatalf("sparse predict = %v", got)
	}
}

func TestTableSampleDrawsStored(t *testing.T) {
	tab := NewTable("k", "x")
	tab.Add(Params{"x": 1}, 10)
	tab.Add(Params{"x": 1}, 20)
	rng := stats.NewRNG(3)
	seen := map[float64]bool{}
	s := tab.Bind(Params{"x": 1})
	for i := 0; i < 100; i++ {
		v := s.Sample(rng)
		if v != 10 && v != 20 {
			t.Fatalf("sample %v not from stored set", v)
		}
		seen[v] = true
	}
	if len(seen) != 2 {
		t.Fatal("sampling never hit one of the stored values")
	}
}

func TestTableSampleInterpolatedPreservesSpread(t *testing.T) {
	tab := NewTable("k", "x")
	// 20% relative spread at both ends.
	for _, x := range []float64{0, 10} {
		base := 100 * (1 + x/10)
		tab.Add(Params{"x": x}, base*0.8)
		tab.Add(Params{"x": x}, base*1.2)
	}
	rng := stats.NewRNG(4)
	var lo, hi int
	mean := tab.Predict(Params{"x": 5})
	s := tab.Bind(Params{"x": 5})
	for i := 0; i < 200; i++ {
		v := s.Sample(rng)
		if v < mean {
			lo++
		} else {
			hi++
		}
	}
	if lo == 0 || hi == 0 {
		t.Fatalf("interpolated sampling lost variance: lo=%d hi=%d", lo, hi)
	}
}

func TestTableEmptyPanics(t *testing.T) {
	tab := NewTable("k", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tab.Predict(Params{"x": 1})
}

func TestTableNegativeSamplePanics(t *testing.T) {
	tab := NewTable("k", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tab.Add(Params{"x": 1}, -1)
}

func TestTableAddAfterPredict(t *testing.T) {
	tab := NewTable("k", "x")
	tab.Add(Params{"x": 0}, 0)
	tab.Add(Params{"x": 10}, 10)
	_ = tab.Predict(Params{"x": 5})
	tab.Add(Params{"x": 20}, 40)
	// Axes must rebuild: extrapolation now uses the new point.
	if got := tab.Predict(Params{"x": 15}); math.Abs(got-25) > 1e-12 {
		t.Fatalf("predict after add = %v, want 25", got)
	}
}
