package perfmodel

import (
	"fmt"
	"math"
	"testing"

	"besst/internal/stats"
)

// The reference bodies below are the per-draw Sample implementations
// the models shipped before parameters were bound once per call site.
// A bound sampler must reproduce them bit for bit and leave the RNG in
// the same state, which is what keeps every simulated result
// byte-identical across the change.

func refTableSample(t *Table, p Params, rng *stats.RNG) float64 {
	if len(t.points) == 0 {
		panic(fmt.Sprintf("perfmodel: table %q is empty", t.Label))
	}
	t.rebuild()
	coord := t.coordOf(p)
	if pt, ok := t.points[coordKey(coord)]; ok {
		return pt.samples[rng.Intn(len(pt.samples))]
	}
	mean := t.Predict(p)
	near := t.nearest(coord)
	draw := near.samples[rng.Intn(len(near.samples))]
	if near.mean <= 0 {
		return mean
	}
	return mean * draw / near.mean
}

func refFuncSample(f Func, p Params, rng *stats.RNG) float64 {
	v := f.F(p)
	if f.NoiseSigma > 0 {
		v *= rng.LogNormal(0, f.NoiseSigma)
	}
	return v
}

// checkBoundMatches draws n values from the bound sampler and from the
// reference with identically seeded RNGs, comparing bits and the RNG
// state after every draw.
func checkBoundMatches(t *testing.T, name string, m Model, p Params, ref func(*stats.RNG) float64) {
	t.Helper()
	const n = 64
	bound := m.Bind(p)
	got, want := stats.NewRNG(17), stats.NewRNG(17)
	for i := 0; i < n; i++ {
		g, w := bound.Sample(got), ref(want)
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: draw %d = %v (%#x), want %v (%#x)", name, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
		if *got != *want {
			t.Fatalf("%s: RNG state diverged after draw %d", name, i)
		}
	}
}

func TestBoundTableMatchesReference(t *testing.T) {
	line := NewTable("line", "x")
	for _, x := range []float64{1, 2, 4} {
		for i := 0; i < 5; i++ {
			line.Add(Params{"x": x}, x*(1+0.1*float64(i)))
		}
	}

	// Two-axis grid with corner (2, 8) never benchmarked: queries around
	// it interpolate through the nearest-point fallback.
	sparse := NewTable("sparse", "epr", "ranks")
	for _, c := range [][2]float64{{1, 1}, {1, 8}, {2, 1}, {3, 1}, {3, 8}} {
		for i := 0; i < 4; i++ {
			sparse.Add(Params{"epr": c[0], "ranks": c[1]}, c[0]*c[1]*(1+0.05*float64(i)))
		}
	}

	// A point whose samples are all zero has mean 0: off-grid draws
	// whose nearest neighbour is that point return the mean unscaled.
	zero := NewTable("zero", "x")
	zero.Add(Params{"x": 0}, 0)
	zero.Add(Params{"x": 0}, 0)
	zero.Add(Params{"x": 10}, 5)
	zero.Add(Params{"x": 10}, 7)

	// Steeply falling samples: far above the range linear
	// extrapolation undershoots and Predict clamps it to zero.
	falling := NewTable("falling", "x")
	falling.Add(Params{"x": 1}, 10)
	falling.Add(Params{"x": 1}, 12)
	falling.Add(Params{"x": 2}, 1)
	falling.Add(Params{"x": 2}, 2)

	cases := []struct {
		name string
		tab  *Table
		p    Params
	}{
		{"exact", line, Params{"x": 2}},
		{"exact-extra-param", line, Params{"x": 4, "unused": 9}},
		{"interpolated", line, Params{"x": 3}},
		{"below-range", line, Params{"x": 0.25}},
		{"above-range", line, Params{"x": 7}},
		{"sparse-missing-corner", sparse, Params{"epr": 2, "ranks": 8}},
		{"sparse-interpolated", sparse, Params{"epr": 2.5, "ranks": 5}},
		{"sparse-extrapolated", sparse, Params{"epr": 4, "ranks": 27}},
		{"nearest-mean-zero", zero, Params{"x": 1}},
		{"nearest-mean-positive", zero, Params{"x": 9}},
		{"clamped-extrapolation", falling, Params{"x": 10}},
	}
	for _, tc := range cases {
		tab, p := tc.tab, tc.p
		checkBoundMatches(t, tc.name, tab, p, func(rng *stats.RNG) float64 {
			return refTableSample(tab, p, rng)
		})
	}
}

func TestBoundFuncAndConstantMatchReference(t *testing.T) {
	p := Params{"x": 3}
	noisy := Func{Label: "noisy", F: func(p Params) float64 { return p.Get("x") * 2 }, NoiseSigma: 0.1}
	checkBoundMatches(t, "func-noise", noisy, p, func(rng *stats.RNG) float64 { return refFuncSample(noisy, p, rng) })
	plain := Func{Label: "plain", F: func(p Params) float64 { return p.Get("x") + 1 }}
	checkBoundMatches(t, "func-plain", plain, p, func(rng *stats.RNG) float64 { return refFuncSample(plain, p, rng) })
	c := Constant{Label: "c", Seconds: 2.5}
	checkBoundMatches(t, "constant", c, nil, func(*stats.RNG) float64 { return c.Seconds })
}
