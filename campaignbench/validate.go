package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"net/http/httptest"

	"besst/internal/groundtruth"
	"besst/internal/lulesh"
	"besst/internal/par"
	"besst/internal/serve"
	"besst/internal/stats"
)

// Ground-truth settings for sim_mape_pct: the emulator's full-run mean
// at a point is averaged over truthRuns runs from a fixed seed, so the
// reference is identical in every run of the benchmark.
const (
	truthRuns = 8
	truthSeed = 2021
)

// digest is the SHA-256 over the length-prefixed result bodies, so a
// change to any RNG stream or encoding shows as a different digest.
func digest(bodies [][]byte) string {
	h := sha256.New()
	for _, b := range bodies {
		_, _ = fmt.Fprintf(h, "%d:", len(b))
		_, _ = h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// scenarioFor resolves a request scenario name with the period
// override applied, as the service does.
func scenarioFor(name string, period int) (lulesh.Scenario, error) {
	sc, err := lulesh.ParseScenario(name)
	if err != nil {
		return sc, err
	}
	if period > 0 {
		for i := range sc.Schedules {
			sc.Schedules[i].Period = period
		}
	}
	return sc, nil
}

// cellScenario maps a result cell's scenario label back to its name.
func cellScenario(label string) (string, error) {
	for _, name := range []string{"noft", "l1", "l1l2"} {
		sc, err := lulesh.ParseScenario(name)
		if err != nil {
			return "", err
		}
		if sc.Name == label {
			return name, nil
		}
	}
	return "", fmt.Errorf("unknown scenario label %q", label)
}

// truthPoint is one (epr, ranks, steps, scenario) comparison of a
// simulated mean against the ground-truth emulator.
type truthPoint struct {
	epr, ranks, steps int
	scenario          string
	simulated         float64
}

// simMAPE is the Table IV metric over the points: the MAPE of the
// simulated makespan means against the emulator's full-run means.
func simMAPE(points []truthPoint, period int) (float64, error) {
	type key struct {
		epr, ranks, steps int
		scenario          string
	}
	index := map[key]int{}
	var keys []key
	for _, p := range points {
		k := key{p.epr, p.ranks, p.steps, p.scenario}
		if _, ok := index[k]; !ok {
			index[k] = len(keys)
			keys = append(keys, k)
		}
	}
	em := groundtruth.NewQuartz()
	means := make([]float64, len(keys))
	errs := make([]error, len(keys))
	par.ForEach(0, len(keys), func(i int) {
		k := keys[i]
		sc, err := scenarioFor(k.scenario, period)
		if err != nil {
			errs[i] = err
			return
		}
		seeds := par.SeedFan(truthSeed, truthRuns)
		var cum []float64
		for j := range seeds {
			cum = em.FullRunInto(cum, k.epr, k.ranks, k.steps, sc, stats.NewRNG(seeds[j]))
			means[i] += cum[len(cum)-1]
		}
		means[i] /= truthRuns
	})
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	truth := make([]float64, len(points))
	sim := make([]float64, len(points))
	for i, p := range points {
		truth[i] = means[index[key{p.epr, p.ranks, p.steps, p.scenario}]]
		sim[i] = p.simulated
	}
	return stats.MAPE(truth, sim), nil
}

// validation is the post-run check over the validation set: the first
// campaigns of every client's stream.
type validation struct {
	Campaigns    int     `json:"campaigns"`
	Digest       string  `json:"result_digest"`
	SimMAPEPct   float64 `json:"sim_mape_pct"`
	SearchGapPct float64 `json:"search_gap_pct"`
	// LocalIdentical: dist results byte-identical to in-process runs.
	LocalIdentical *bool `json:"local_identical,omitempty"`
	Attempted      int   `json:"attempted"`
	Failed         int   `json:"failed"`
	Errors         []string
}

// validationSize is how many of each client's first campaigns form the
// validation set: four search campaigns, or 90 Monte Carlo campaigns —
// whole blocks of every mix (30 or 6 points), and enough that the Monte
// Carlo noise of the per-campaign means barely moves sim_mape_pct from
// seed to seed.
func (w *workload) validationSize() int {
	if w.kind == serve.KindSweep {
		return 4
	}
	return 90
}

func validate(w *workload, f *fleet, first []outcome) validation {
	v := validation{Campaigns: len(first)}
	fail := func(err error) {
		v.Failed++
		v.Errors = append(v.Errors, err.Error())
	}
	bodies := make([][]byte, len(first))
	var points []truthPoint
	var gaps []float64
	for i, o := range first {
		bodies[i] = o.body
		if o.err != nil {
			fail(fmt.Errorf("validation campaign %d: %w", i, o.err))
			continue
		}
		doc, err := checkResult(o.c, o.body)
		if err != nil {
			fail(err)
			continue
		}
		if w.kind == serve.KindSweep {
			for _, cell := range doc.Cells {
				if cell.Predicted {
					continue
				}
				name, err := cellScenario(cell.Scenario)
				if err != nil {
					fail(err)
					continue
				}
				points = append(points, truthPoint{cell.EPR, cell.Ranks, w.steps, name, cell.MeanSec})
			}
			gap, err := searchGap(w, f, o, doc)
			v.Attempted++
			if err != nil {
				fail(err)
			}
			gaps = append(gaps, gap)
			continue
		}
		points = append(points, truthPoint{o.c.combo.EPR, o.c.combo.Ranks, w.steps, o.c.combo.Scenario, stats.Mean(doc.Makespans)})
	}
	v.Digest = digest(bodies)
	v.SearchGapPct = stats.Mean(gaps)
	mape, err := simMAPE(points, w.period)
	if err != nil {
		fail(err)
	}
	v.SimMAPEPct = mape
	if w.dist {
		same, n, err := localIdentical(first)
		v.Attempted += n
		if err != nil {
			fail(err)
		}
		v.LocalIdentical = &same
		if !same {
			fail(fmt.Errorf("sharded results differ from in-process runs"))
		}
	}
	return v
}

// searchGap posts the exhaustive version of a search campaign (same grid
// and seed) and returns the searched optimum's cost gap, in percent,
// against the exhaustive optimum.
func searchGap(w *workload, f *fleet, o outcome, doc *serve.CampaignResult) (float64, error) {
	ex, err := w.exhaustive(o.c)
	if err != nil {
		return 0, err
	}
	p := newPoster(nil)
	defer p.close()
	eo := p.post(f.front(ex), ex)
	if eo.err != nil {
		return 0, fmt.Errorf("exhaustive sweep: %w", eo.err)
	}
	exDoc, err := checkResult(ex, eo.body)
	if err != nil {
		return 0, err
	}
	if doc.Search == nil {
		return 0, fmt.Errorf("search campaign result has no search summary")
	}
	best := math.Inf(1)
	for _, c := range exDoc.Cells {
		best = math.Min(best, c.MeanSec)
	}
	return 100 * (doc.Search.Best.MeanSec - best) / best, nil
}

// localIdentical re-runs the validation requests on an in-process
// server with no backend and compares the result bytes.
func localIdentical(first []outcome) (bool, int, error) {
	srv := serve.NewServer(serverConfig())
	defer srv.Drain()
	local := &fleet{servers: []*serve.Server{srv}, fronts: []*httptest.Server{httptest.NewServer(srv.Handler())}}
	defer local.fronts[0].Close()
	cs := make([]campaign, len(first))
	for i, o := range first {
		cs[i] = o.c
	}
	same := true
	for i, lo := range postAll(local, cs, nil) {
		if lo.err != nil {
			return false, len(cs), fmt.Errorf("in-process run of validation campaign %d: %w", i, lo.err)
		}
		if sha256.Sum256(lo.body) != sha256.Sum256(first[i].body) {
			same = false
		}
	}
	return same, len(cs), nil
}
