package main

import (
	"encoding/json"
	"fmt"
	"math"

	"besst/internal/besst"
	"besst/internal/lulesh"
	"besst/internal/serve"
	"besst/internal/stats"
)

// maxRanks is the largest rank count a generated point may use: Quartz
// holds 2988 nodes of 2 ranks each, and 4096 is the largest even
// perfect cube below that.
const maxRanks = 4096

// rankMultiple is FTI's group_size * node_size: a valid rank count is a
// multiple of it.
const rankMultiple = 8

// clients is the number of closed-loop clients of every workload, each
// with its own tenant and its own deterministic request stream. Each
// campaign runs on one worker, so a single client leaves the second
// core of a 2-vCPU host to the service's own goroutines and the GC; on
// a shared host, two CPU-bound clients made runs about twice as noisy.
const clients = 1

// workload is one campaign mix the benchmark drives through the
// service: what each generated request looks like and which fleet
// serves them.
type workload struct {
	name string
	// kind is serve.KindMonteCarlo or serve.KindSweep.
	kind   string
	method string // model development method: symreg | interp
	mode   string // trial execution mode: direct | des (monte_carlo only)
	trials int    // Monte Carlo trials per campaign
	steps  int    // timesteps per run
	period int    // checkpoint period override (0: scenario default)
	// combos is the mix one block of a client's stream covers, each
	// exactly once in a seeded order (monte_carlo only).
	combos []combo
	// sweep is the design-space grid of a search campaign (dse_sweep).
	sweep *serve.SweepSpec
	// repostEvery makes every n-th request of a client re-post one of
	// the client's own earlier campaigns (0: never).
	repostEvery int
	// dist routes campaigns through dist.ServeBackend over in-process
	// workers; combo.replicas picks the k=1 or k=3 server.
	dist bool
}

// combo is one point of a Monte Carlo mix.
type combo struct {
	EPR      int
	Ranks    int
	Scenario string
	Replicas int // dist workloads: functional-replication degree
}

func product(eprs, ranks []int, scenarios []string) []combo {
	var out []combo
	for _, r := range ranks {
		for _, e := range eprs {
			for _, sc := range scenarios {
				out = append(out, combo{EPR: e, Ranks: r, Scenario: sc, Replicas: 1})
			}
		}
	}
	return out
}

// workloads are the benchmark's campaign mixes. BENCHMARK.json lists
// the first two, in this order. dse_search and mc_sharded run by hand
// with the same command; the traced run's layer replay also uses them
// to reach the dse and dist layers from every workload.
var workloads = []*workload{
	{
		name:   "mc_straggler",
		kind:   serve.KindMonteCarlo,
		method: "symreg",
		mode:   "direct",
		trials: 32,
		steps:  60,
		// Rank counts roughly 3x apart keep the latency modes apart even
		// when the host slows a run by half. The 1:3:1 mix puts p50 at
		// the median of the 1728-rank mode and p90 at the median of the
		// 4096-rank one, where a run's share of slow host spells moves
		// them least.
		combos: product([]int{10, 15, 20}, []int{512, 1728, 1728, 1728, 4096}, []string{"l1", "l1l2"}),
	},
	{
		name:   "mc_des",
		kind:   serve.KindMonteCarlo,
		method: "interp",
		mode:   "des",
		trials: 8,
		steps:  60,
		// The same 1:3:1 mix as mc_straggler.
		combos: product([]int{10, 15, 20}, []int{8, 64, 64, 64, 216}, []string{"l1", "l1l2"}),
	},
	{
		name:   "dse_search",
		kind:   serve.KindSweep,
		method: "symreg",
		steps:  60,
		sweep: &serve.SweepSpec{
			EPRs:      []int{5, 10, 15, 20, 25},
			Ranks:     []int{8, 64, 216, 512, 1000},
			Scenarios: []string{"noft", "l1", "l1l2"},
			Timesteps: 60,
			MCRuns:    4,
			Search:    &serve.SearchSpec{Budget: 0.4},
		},
		repostEvery: 5,
	},
	{
		name:   "mc_sharded",
		kind:   serve.KindMonteCarlo,
		method: "interp",
		mode:   "direct",
		trials: 256,
		steps:  20,
		period: 10,
		// Sorted by latency the modes are 8 and 64 ranks at k=1 (0-33%),
		// 216 ranks at k=1 (33-67%), and 64 ranks at k=3 (67-100%), so
		// p50 falls in the middle of one mode and p90 well inside
		// another.
		combos: []combo{
			{EPR: 10, Ranks: 8, Scenario: "l1l2", Replicas: 1},
			{EPR: 10, Ranks: 64, Scenario: "l1l2", Replicas: 1},
			{EPR: 10, Ranks: 216, Scenario: "l1l2", Replicas: 1},
			{EPR: 10, Ranks: 216, Scenario: "l1l2", Replicas: 1},
			{EPR: 10, Ranks: 64, Scenario: "l1l2", Replicas: 3},
			{EPR: 10, Ranks: 64, Scenario: "l1l2", Replicas: 3},
		},
		dist: true,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// campaign is one generated request and what its checks need.
type campaign struct {
	raw    []byte // request JSON, posted verbatim
	combo  combo  // monte_carlo: the mix point
	trials int
	cells  int // dse_sweep: expected result cells
	// repostOf is the client-stream index this request re-posts, or -1.
	repostOf int
}

// stream generates one client's requests: blocks of the workload's mix
// in a seeded order, each request with its own run seed. The same
// (workload, seed, client) always yields the same bytes.
type stream struct {
	w      *workload
	tenant string
	rng    *stats.RNG
	block  []int
	done   []campaign
}

// newStream builds client c's stream.
func newStream(w *workload, seed uint64, c int) *stream {
	return &stream{
		w:      w,
		tenant: fmt.Sprintf("client-%d", c),
		rng:    stats.NewRNG(seed*1_000_003 + uint64(c) + 1),
	}
}

// next returns the stream's next request.
func (s *stream) next() campaign {
	j := len(s.done)
	if s.w.repostEvery > 0 && j%s.w.repostEvery == s.w.repostEvery-1 {
		// Re-post one of this client's own earlier fresh campaigns.
		for {
			k := s.rng.Intn(j)
			if s.done[k].repostOf < 0 {
				c := s.done[k]
				c.repostOf = k
				s.done = append(s.done, c)
				return c
			}
		}
	}
	var c campaign
	if s.w.kind == serve.KindSweep {
		c = s.w.sweepRequest(s.tenant, s.rng.Uint64()|1)
	} else {
		if len(s.block) == 0 {
			s.block = s.rng.Perm(len(s.w.combos))
		}
		pick := s.w.combos[s.block[0]]
		s.block = s.block[1:]
		c = s.w.mcRequest(s.tenant, pick, s.w.trials, s.rng.Uint64()|1)
	}
	s.done = append(s.done, c)
	return c
}

func (w *workload) model() *serve.ModelSpec {
	return &serve.ModelSpec{Method: w.method, Samples: modelSamples, Seed: modelSeed}
}

func (w *workload) mcRequest(tenant string, cb combo, trials int, seed uint64) campaign {
	req := serve.CampaignRequest{
		SchemaVersion: serve.RequestSchemaVersion,
		Kind:          serve.KindMonteCarlo,
		Tenant:        tenant,
		Trials:        trials,
		Run: besst.RunSpec{
			SchemaVersion: besst.SpecSchemaVersion,
			Mode:          w.mode,
			MonteCarlo:    true,
			PerRankNoise:  true,
			Seed:          seed,
			Workers:       1,
		},
		App:   &serve.AppSpec{EPR: cb.EPR, Ranks: cb.Ranks, Steps: w.steps, Scenario: cb.Scenario, Period: w.period},
		Model: w.model(),
	}
	return campaign{raw: mustJSON(req), combo: cb, trials: trials, repostOf: -1}
}

func (w *workload) sweepRequest(tenant string, seed uint64) campaign {
	req := serve.CampaignRequest{
		SchemaVersion: serve.RequestSchemaVersion,
		Kind:          serve.KindSweep,
		Tenant:        tenant,
		Run:           besst.RunSpec{SchemaVersion: besst.SpecSchemaVersion, Seed: seed, Workers: 1},
		Sweep:         w.sweep,
		Model:         w.model(),
	}
	cells := len(w.sweep.EPRs) * len(w.sweep.Ranks) * len(w.sweep.Scenarios)
	return campaign{raw: mustJSON(req), cells: cells, repostOf: -1}
}

// setupCampaign is the campaign every set-up runs: the mix's first
// point, so each seed sets up the same work.
func (w *workload) setupCampaign(seed uint64) campaign {
	if w.kind == serve.KindSweep {
		return w.sweepRequest("setup", seed)
	}
	return w.mcRequest("setup", w.combos[0], w.trials, seed)
}

// exhaustive is the sweep request c with its search block removed: the
// same grid and seed, every point simulated.
func (w *workload) exhaustive(c campaign) (campaign, error) {
	var req serve.CampaignRequest
	if err := json.Unmarshal(c.raw, &req); err != nil {
		return campaign{}, err
	}
	sw := *req.Sweep
	sw.Search = nil
	req.Sweep = &sw
	req.Tenant = "validation"
	return campaign{raw: mustJSON(req), cells: c.cells, repostOf: -1}, nil
}

// warmups is one cheap campaign per distinct compiled application of
// the mix, so the timed phase sees a warm compile cache. Sweeps compile
// per design point and have nothing to warm beyond the model bundle.
func (w *workload) warmups(seed uint64) []campaign {
	var out []campaign
	seen := map[serve.AppSpec]bool{}
	rng := stats.NewRNG(seed ^ 0x5eed)
	for _, cb := range w.combos {
		app := serve.AppSpec{EPR: cb.EPR, Ranks: cb.Ranks, Steps: w.steps, Scenario: cb.Scenario, Period: w.period}
		if seen[app] {
			continue
		}
		seen[app] = true
		trials := 1
		if w.dist {
			// One trial per shard, replicated k=3, reaches every worker.
			trials = shards
			cb.Replicas = 3
		}
		out = append(out, w.mcRequest("warmup", cb, trials, rng.Uint64()|1))
	}
	return out
}

// validPoint reports whether an app point compiles on Quartz: ranks an
// even perfect cube (a multiple of group_size*node_size) within the
// machine.
func validPoint(ranks int) bool {
	return ranks > 0 && ranks <= maxRanks && ranks%rankMultiple == 0 && lulesh.IsPerfectCube(ranks)
}

// checkResult parses a result document and checks it has the expected
// number of makespans or cells, all finite and positive.
func checkResult(c campaign, body []byte) (*serve.CampaignResult, error) {
	var doc serve.CampaignResult
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("result does not parse: %w", err)
	}
	positive := func(what string, v float64) error {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return fmt.Errorf("%s %v is not finite and positive", what, v)
		}
		return nil
	}
	if c.cells > 0 {
		if len(doc.Cells) != c.cells {
			return nil, fmt.Errorf("%d cells, want %d", len(doc.Cells), c.cells)
		}
		if len(doc.FailedPoints) > 0 {
			return nil, fmt.Errorf("%d failed points", len(doc.FailedPoints))
		}
		for _, cell := range doc.Cells {
			if err := positive("cell mean", cell.MeanSec); err != nil {
				return nil, err
			}
		}
		return &doc, nil
	}
	if len(doc.Makespans) != c.trials || doc.Trials != c.trials {
		return nil, fmt.Errorf("%d makespans (trials %d), want %d", len(doc.Makespans), doc.Trials, c.trials)
	}
	if len(doc.FailedTrials) > 0 {
		return nil, fmt.Errorf("%d failed trials", len(doc.FailedTrials))
	}
	for _, m := range doc.Makespans {
		if err := positive("makespan", m); err != nil {
			return nil, err
		}
	}
	return &doc, nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("campaignbench: marshal: %v", err))
	}
	return b
}
