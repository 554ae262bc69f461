// Package workflow wires the BE-SST phases together end to end: run a
// benchmarking campaign on the (emulated) machine, develop performance
// models from it with either modeling method (interpolation tables or
// symbolic regression), validate them against the measurements, bind
// them into an ArchBEO, and validate full-system simulations — the
// complete loop of Fig 2, including the FT-aware extensions.
package workflow

import (
	"fmt"
	"math"
	"sort"

	"besst/internal/benchdata"
	"besst/internal/beo"
	"besst/internal/besst"
	"besst/internal/groundtruth"
	"besst/internal/lulesh"
	"besst/internal/perfmodel"
	"besst/internal/stats"
	"besst/internal/symreg"
)

// Method selects the Model Development modeling method.
type Method int

// The two implemented methods from the paper.
const (
	// Interpolation organizes samples into lookup tables and
	// interpolates between benchmarked combinations.
	Interpolation Method = iota
	// SymbolicRegression fits closed-form expressions with genetic
	// programming (the method used in the paper's case study).
	SymbolicRegression
)

func (m Method) String() string {
	if m == Interpolation {
		return "interpolation"
	}
	return "symbolic regression"
}

// ModelReport records the development outcome of one op's model.
type ModelReport struct {
	Op             string
	Method         Method
	TrainMAPE      float64 // percent; NaN for interpolation
	TestMAPE       float64 // percent; NaN when no held-out set
	ValidationMAPE float64 // percent, vs every campaign sample
	Expression     string  // symbolic form, "" for tables
}

// Models is the output of the Model Development phase.
type Models struct {
	ByOp    map[string]perfmodel.Model
	Reports []ModelReport
}

// Warm polls every model once at the given parameters, forcing lazy
// internal state (interpolation-table rebuilds) to materialize. Callers
// that share one Models value across goroutines — the parallel DSE
// sweep, pooled Monte Carlo replications — must Warm it first so all
// subsequent Predict/Sample calls are pure reads.
func (ms *Models) Warm(p perfmodel.Params) {
	for _, m := range ms.ByOp {
		m.Predict(p)
	}
}

// Develop fits one model per op present in the campaign, using the
// given parameter names as model inputs. For symbolic regression the
// campaign is split 80/20 train/test per the paper's protocol.
func Develop(c *benchdata.Campaign, method Method, paramNames []string, seed uint64) *Models {
	out := &Models{ByOp: map[string]perfmodel.Model{}}
	ops := c.Ops()
	sort.Strings(ops)
	rng := stats.NewRNG(seed)
	for _, op := range ops {
		rep := ModelReport{Op: op, Method: method, TrainMAPE: math.NaN(), TestMAPE: math.NaN()}
		var m perfmodel.Model
		switch method {
		case Interpolation:
			m = c.Table(op, paramNames...)
		case SymbolicRegression:
			ds := c.Dataset(op, paramNames...)
			train, test := ds.Split(0.2, rng.Uint64())
			f := symreg.Fit(op, train, test, symreg.Options{Seed: rng.Uint64()})
			rep.TrainMAPE = f.TrainMAPE
			rep.TestMAPE = f.TestMAPE
			rep.Expression = f.String()
			m = f
		default:
			panic(fmt.Sprintf("workflow: unknown method %d", method))
		}
		rep.ValidationMAPE = ValidateModel(m, c, op)
		out.ByOp[op] = m
		out.Reports = append(out.Reports, rep)
	}
	return out
}

// ValidateModel computes the MAPE of a model against every sample of
// one op in the campaign — the Table III validation metric (predicted
// vs measured runtime over the design-space grid).
func ValidateModel(m perfmodel.Model, c *benchdata.Campaign, op string) float64 {
	var measured, predicted []float64
	for _, s := range c.ForOp(op) {
		measured = append(measured, s.Seconds)
		predicted = append(predicted, m.Predict(s.Params))
	}
	return stats.MAPE(measured, predicted)
}

// Report returns the report for one op, panicking if absent.
func (m *Models) Report(op string) ModelReport {
	for _, r := range m.Reports {
		if r.Op == op {
			return r
		}
	}
	panic(fmt.Sprintf("workflow: no report for op %q", op))
}

// BindLulesh attaches the developed LULESH models to an ArchBEO.
func BindLulesh(arch *beo.ArchBEO, models *Models) {
	for op, m := range models.ByOp {
		arch.Bind(op, m)
	}
}

// DevelopLuleshQuartz runs the full case-study Model Development phase:
// collect the Table II campaign from the Quartz ground truth and fit
// models with the given method. It returns the campaign too, for
// validation and plotting.
func DevelopLuleshQuartz(em *groundtruth.Emulator, samplesPer int, method Method, seed uint64) (*Models, *benchdata.Campaign) {
	campaign := benchdata.CollectLulesh(em, benchdata.CaseStudyPlan(samplesPer, seed))
	models := Develop(campaign, method, []string{"epr", "ranks"}, seed+1)
	return models, campaign
}

// SystemValidation is one full-system validation point: a simulated
// run compared against a measured run (Figs 7-8, Table IV).
type SystemValidation struct {
	EPR, Ranks   int
	Scenario     string
	MeasuredSec  float64 // ground-truth total runtime
	PredictedSec float64 // Monte Carlo mean of simulated makespans
	PercentError float64 // signed
}

// ValidateSystem simulates app-level runs for every (epr, ranks) in the
// grid under one scenario and compares them to ground-truth full runs.
// mcRuns Monte Carlo replications are averaged per point. Simulation
// uses Direct mode for speed; DES mode is exercised in Figs 7-8 runs.
func ValidateSystem(em *groundtruth.Emulator, models *Models, eprs, ranks []int,
	timesteps int, sc lulesh.Scenario, mcRuns int, seed uint64) []SystemValidation {

	cfg := em.Cost.Config
	rng := stats.NewRNG(seed)
	var out []SystemValidation
	var cum []float64 // ground-truth buffer, reused across grid points
	for _, epr := range eprs {
		for _, r := range ranks {
			app := lulesh.App(epr, r, timesteps, sc, cfg)
			arch := beo.NewArchBEO(em.M, cfg.NodeSize)
			BindLulesh(arch, models)
			runs := besst.Replicate(app, arch, mcRuns,
				besst.WithMode(besst.Direct),
				besst.WithPerRankNoise(true),
				besst.WithSeed(rng.Uint64()))
			pred := stats.Mean(besst.Makespans(runs))

			cum = em.FullRunInto(cum, epr, r, timesteps, sc, rng.Split())
			meas := cum[len(cum)-1]
			out = append(out, SystemValidation{
				EPR: epr, Ranks: r, Scenario: sc.Name,
				MeasuredSec:  meas,
				PredictedSec: pred,
				PercentError: stats.PercentError(meas, pred),
			})
		}
	}
	return out
}

// SystemMAPE aggregates validation points into the Table IV metric.
func SystemMAPE(points []SystemValidation) float64 {
	var m, p []float64
	for _, pt := range points {
		m = append(m, pt.MeasuredSec)
		p = append(p, pt.PredictedSec)
	}
	return stats.MAPE(m, p)
}

// DistributionCheck validates the Monte Carlo claim of Fig 1: that
// sampling from a developed model reproduces not just the mean but the
// *distribution* of the calibration samples at each benchmarked
// parameter combination. For every combination of the given op it draws
// `draws` model samples and returns the worst (largest) two-sample
// Kolmogorov-Smirnov distance against the stored measurements.
func DistributionCheck(m perfmodel.Model, c *benchdata.Campaign, op string, draws int, seed uint64) float64 {
	if draws <= 0 {
		panic("workflow: non-positive draw count")
	}
	byCombo := map[string][]float64{}
	params := map[string]perfmodel.Params{}
	for _, s := range c.ForOp(op) {
		key := s.Params.Key()
		byCombo[key] = append(byCombo[key], s.Seconds)
		params[key] = s.Params
	}
	if len(byCombo) == 0 {
		panic(fmt.Sprintf("workflow: no samples for op %q", op))
	}
	keys := make([]string, 0, len(byCombo))
	for k := range byCombo {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rng := stats.NewRNG(seed)
	worst := 0.0
	for _, k := range keys {
		sim := make([]float64, draws)
		s := m.Bind(params[k])
		for i := range sim {
			sim[i] = s.Sample(rng)
		}
		if d := stats.KSDistance(byCombo[k], sim); d > worst {
			worst = d
		}
	}
	return worst
}
