package perfmodel

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"besst/internal/stats"
)

// Table is the paper's interpolation modeling method: calibration
// samples organized into a lookup table keyed by the system parameters.
// When polled at a benchmarked parameter combination it returns (or
// draws from) the stored samples; between combinations it interpolates
// multilinearly along each parameter axis; beyond the benchmarked range
// it extrapolates linearly from the outermost points — the mechanism
// that supports the notional-system prediction regions of Figs 5-6.
type Table struct {
	Label      string
	ParamNames []string // interpolation axes, fixed order

	points map[string]*tablePoint
	axes   [][]float64 // sorted unique values per axis, built lazily
	dirty  bool
}

type tablePoint struct {
	coord   []float64
	samples []float64
	mean    float64
}

// NewTable creates an empty lookup table over the given parameter axes.
func NewTable(label string, paramNames ...string) *Table {
	if len(paramNames) == 0 {
		panic("perfmodel: table needs at least one parameter")
	}
	return &Table{
		Label:      label,
		ParamNames: paramNames,
		points:     make(map[string]*tablePoint),
	}
}

func coordKey(coord []float64) string {
	var b strings.Builder
	for i, v := range coord {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	}
	return b.String()
}

func (t *Table) coordOf(p Params) []float64 {
	c := make([]float64, len(t.ParamNames))
	for i, name := range t.ParamNames {
		c[i] = p.Get(name)
	}
	return c
}

// Add records one calibration sample at the given parameters.
func (t *Table) Add(p Params, sample float64) {
	if sample < 0 {
		panic("perfmodel: negative sample")
	}
	coord := t.coordOf(p)
	key := coordKey(coord)
	pt, ok := t.points[key]
	if !ok {
		pt = &tablePoint{coord: coord}
		t.points[key] = pt
	}
	pt.samples = append(pt.samples, sample)
	t.dirty = true
}

// Points returns the number of distinct parameter combinations stored.
func (t *Table) Points() int { return len(t.points) }

// Samples returns the stored samples at exactly the given parameters,
// or nil if that combination was never benchmarked.
func (t *Table) Samples(p Params) []float64 {
	pt, ok := t.points[coordKey(t.coordOf(p))]
	if !ok {
		return nil
	}
	return pt.samples
}

func (t *Table) rebuild() {
	if !t.dirty {
		return
	}
	t.axes = make([][]float64, len(t.ParamNames))
	for d := range t.axes {
		seen := map[float64]bool{}
		for _, pt := range t.points {
			seen[pt.coord[d]] = true
		}
		axis := make([]float64, 0, len(seen))
		for v := range seen {
			axis = append(axis, v)
		}
		sort.Float64s(axis)
		t.axes[d] = axis
	}
	for _, pt := range t.points {
		pt.mean = stats.Mean(pt.samples)
	}
	t.dirty = false
}

// nearest returns the stored point closest to coord in normalized
// axis-index space. Ties break on the canonical coordinate key so the
// choice never depends on map iteration order (predictions must be
// bit-reproducible across runs and serialization round trips).
func (t *Table) nearest(coord []float64) *tablePoint {
	var best *tablePoint
	bestD := math.Inf(1)
	bestKey := ""
	for key, pt := range t.points {
		d := 0.0
		for i := range coord {
			span := t.axes[i][len(t.axes[i])-1] - t.axes[i][0]
			if stats.ApproxEqual(span, 0, 0) {
				span = 1
			}
			dd := (pt.coord[i] - coord[i]) / span
			d += dd * dd
		}
		if d < bestD || (stats.ApproxEqual(d, bestD, 0) && key < bestKey) {
			bestD = d
			best = pt
			bestKey = key
		}
	}
	return best
}

// valueAt returns the mean at an exact stored coordinate, falling back
// to the nearest stored point when a grid corner is missing (sparse
// benchmarking campaigns).
func (t *Table) valueAt(coord []float64) float64 {
	if pt, ok := t.points[coordKey(coord)]; ok {
		return pt.mean
	}
	return t.nearest(coord).mean
}

// interp recursively interpolates along axis dim. Coordinates before
// dim are already pinned to grid values in coord.
func (t *Table) interp(coord []float64, dim int) float64 {
	if dim == len(coord) {
		return t.valueAt(coord)
	}
	axis := t.axes[dim]
	x := coord[dim]

	// Locate bracketing axis values, or the outermost pair for linear
	// extrapolation beyond the benchmarked range.
	i := sort.SearchFloat64s(axis, x)
	switch {
	case len(axis) == 1:
		c := append([]float64{}, coord...)
		c[dim] = axis[0]
		return t.interp(c, dim+1)
	case i < len(axis) && stats.ApproxEqual(axis[i], x, 0):
		c := append([]float64{}, coord...)
		c[dim] = axis[i]
		return t.interp(c, dim+1)
	case i == 0:
		i = 1 // extrapolate below range from first two values
	case i == len(axis):
		i = len(axis) - 1 // extrapolate above range from last two
	}
	lo, hi := axis[i-1], axis[i]
	cLo := append([]float64{}, coord...)
	cLo[dim] = lo
	cHi := append([]float64{}, coord...)
	cHi[dim] = hi
	vLo := t.interp(cLo, dim+1)
	vHi := t.interp(cHi, dim+1)
	frac := (x - lo) / (hi - lo)
	return vLo + frac*(vHi-vLo)
}

// Predict implements Model.
func (t *Table) Predict(p Params) float64 {
	if len(t.points) == 0 {
		panic(fmt.Sprintf("perfmodel: table %q is empty", t.Label))
	}
	t.rebuild()
	v := t.interp(t.coordOf(p), 0)
	if v < 0 {
		v = 0 // linear extrapolation can undershoot; time is non-negative
	}
	return v
}

// Bind implements Model. At a benchmarked combination the sampler draws
// uniformly from the stored samples (the paper: "one of many samples is
// selected"); elsewhere it draws from the nearest benchmarked point and
// rescales to the interpolated mean, preserving relative variance.
func (t *Table) Bind(p Params) Sampler {
	if len(t.points) == 0 {
		panic(fmt.Sprintf("perfmodel: table %q is empty", t.Label))
	}
	t.rebuild()
	coord := t.coordOf(p)
	if pt, ok := t.points[coordKey(coord)]; ok {
		return storedDraw(pt.samples)
	}
	near := t.nearest(coord)
	return scaledDraw{mean: t.Predict(p), near: near.samples, nearMean: near.mean}
}

// storedDraw samples a benchmarked point's stored measurements.
type storedDraw []float64

// Sample implements Sampler.
//
//lint:hotpath
func (s storedDraw) Sample(rng *stats.RNG) float64 { return s[rng.Intn(len(s))] }

// scaledDraw samples an off-grid point: a draw from the nearest stored
// point, rescaled from that point's mean to the interpolated one.
type scaledDraw struct {
	mean     float64
	near     []float64
	nearMean float64
}

// Sample implements Sampler.
//
//lint:hotpath
func (s scaledDraw) Sample(rng *stats.RNG) float64 {
	draw := s.near[rng.Intn(len(s.near))]
	if s.nearMean <= 0 {
		return s.mean
	}
	return s.mean * draw / s.nearMean
}

// Name implements Model.
func (t *Table) Name() string { return t.Label }
