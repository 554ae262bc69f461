package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"

	"besst/internal/benchdata"
	"besst/internal/beo"
	"besst/internal/besst"
	"besst/internal/cli"
	"besst/internal/dist"
	"besst/internal/dse"
	"besst/internal/groundtruth"
	"besst/internal/lulesh"
	"besst/internal/par"
	"besst/internal/serve"
	"besst/internal/stats"
	"besst/internal/workflow"
)

// Replay sizes: how many of client 0's campaigns the layer replay
// re-runs, and how many trials of each it also runs in the mode the
// workload does not use.
const (
	replayCampaigns = 3
	replayDist      = 2
	probeTrials     = 2
)

// The model development every request asks for: the service defaults
// of 10 samples per point and seed 1.
const (
	modelSamples = 10
	modelSeed    = 1
)

// sink keeps probe loops from being optimized away.
var sink float64

// phaseDoc is one closed-loop phase's end-to-end figures.
type phaseDoc struct {
	Campaigns int     `json:"campaigns"`
	P50MS     float64 `json:"campaign_p50_ms"`
	P90MS     float64 `json:"campaign_p90_ms"`
	PerSec    float64 `json:"campaigns_per_s"`
}

func phase(l latencies) phaseDoc {
	return phaseDoc{Campaigns: l.n, P50MS: l.p50, P90MS: l.p90, PerSec: l.perSec}
}

// traceInfo is the traced run's record: the untraced and traced
// phases, the per-span aggregates, and the CPU ownership table.
type traceInfo struct {
	Untraced    phaseDoc             `json:"untraced"`
	Traced      phaseDoc             `json:"traced"`
	Spans       map[string]spanStats `json:"spans"`
	CPUSharePct map[string]float64   `json:"cpu_share_pct"`
	Owner       string               `json:"owner"`
	TraceFile   string               `json:"trace_file"`
	ProfileFile string               `json:"profile_file"`
}

// traceRun replays the untraced phase's campaigns (the same per-client
// counts) on a fresh fleet with client spans and a CPU profile, then
// replays client 0's first campaigns through each layer's public
// functions with spans, and sets the per-layer metrics in m.
func traceRun(w *workload, seed uint64, counts []int, untraced latencies, base string, m metrics, count func([]outcome)) (*traceInfo, error) {
	tr := newTracer()
	info := &traceInfo{Untraced: phase(untraced), TraceFile: base + ".trace.json", ProfileFile: base + ".cpu.pprof"}

	f, err := startFleet(w)
	if err != nil {
		return nil, err
	}
	sc := w.setupCampaign(seed)
	p := newPoster(tr)
	o := p.post(f.front(sc), sc)
	p.close()
	count([]outcome{o})
	if o.err != nil {
		f.close()
		return nil, fmt.Errorf("set-up campaign: %w", o.err)
	}
	count(postAll(f, w.warmups(seed), nil))

	ctx := context.Background()
	st0, err := f.statz(ctx)
	if err != nil {
		f.close()
		return nil, err
	}
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	gc0, cpu0 := gcCPU()
	prof, err := os.Create(info.ProfileFile)
	if err != nil {
		f.close()
		return nil, err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		_ = prof.Close()
		f.close()
		return nil, err
	}
	outs := make([][]outcome, len(counts))
	busy := closedLoop(f, newStreams(w, seed), outs, loadSpec{counts: counts}, tr)
	pprof.StopCPUProfile()
	gc1, cpu1 := gcCPU()
	runtime.ReadMemStats(&mem1)
	st1, statzErr := f.statz(ctx)
	f.close()
	if err := prof.Close(); err != nil {
		return nil, err
	}
	if statzErr != nil {
		return nil, statzErr
	}
	var served []outcome
	for _, co := range outs {
		count(co)
		served = append(served, co...)
	}
	traced := timedMetrics(outs, busy)
	info.Traced = phase(traced)

	m.set("trace.overhead_p50_ms", traced.p50-untraced.p50, "ms")
	m.set("trace.overhead_p90_ms", traced.p90-untraced.p90, "ms")
	m.set("trace.overhead_campaigns_per_s", traced.perSec-untraced.perSec, "1/s")
	m.set("serve.cache_hit_ratio", ratio(st1.Cache.Hits-st0.Cache.Hits, st1.Cache.Misses-st0.Cache.Misses), "ratio")
	m.set("dse.memo_hit_ratio", ratio(st1.PointMemo.Hits-st0.PointMemo.Hits, st1.PointMemo.Misses-st0.PointMemo.Misses), "ratio")
	m.set("go.alloc_mb_per_campaign", float64(mem1.TotalAlloc-mem0.TotalAlloc)/1e6/float64(max(1, len(served))), "MB")
	gcFrac := 0.0
	if cpu1 > cpu0 {
		gcFrac = (gc1 - gc0) / (cpu1 - cpu0)
	}
	m.set("go.gc_cpu_fraction", gcFrac, "ratio")
	var bodies []float64
	for _, o := range served {
		if o.err == nil {
			bodies = append(bodies, float64(len(o.body)))
		}
	}
	m.set("serve.result_bytes", median(bodies), "count")

	if err := replay(w, seed, tr, m, outs[0]); err != nil {
		return info, err
	}

	spans := tr.snapshot()
	if err := writeChromeTrace(info.TraceFile, spans); err != nil {
		return info, err
	}
	info.Spans = aggregate(spans)
	m.set("serve.submit_ms", info.Spans["serveclient.SubmitRaw"].MedMS, "ms")
	m.set("serve.watch_ms", info.Spans["serveclient.Watch"].MedMS, "ms")
	m.set("serve.result_ms", info.Spans["serveclient.Result"].MedMS, "ms")

	shares, err := cpuShares(info.ProfileFile)
	if err != nil {
		return info, err
	}
	info.CPUSharePct = shares
	info.Owner = owner(shares)
	for g, v := range shares {
		m.set("cpu_share."+g, v, "%")
	}
	return info, nil
}

// printOwnership prints the CPU ownership table, largest share first.
func printOwnership(out *cli.Printer, t *traceInfo) {
	groups := append([]string(nil), ownershipGroups...)
	sort.SliceStable(groups, func(i, j int) bool { return t.CPUSharePct[groups[i]] > t.CPUSharePct[groups[j]] })
	out.Printf("  cpu ownership of the traced phase (owner: %s):", t.Owner)
	for _, g := range groups {
		out.Printf(" %s %.1f%%", g, t.CPUSharePct[g])
	}
	out.Println()
	out.Printf("  tracing overhead: p50 %+.3f ms, p90 %+.3f ms, %+.3f campaigns/s (traced minus untraced)\n",
		t.Traced.P50MS-t.Untraced.P50MS, t.Traced.P90MS-t.Untraced.P90MS, t.Traced.PerSec-t.Untraced.PerSec)
}

func ratio(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// gcCPU returns the process's cumulative GC and total CPU seconds.
func gcCPU() (gc, total float64) {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// replay re-runs the workload's campaigns in-process, one layer call
// at a time, with a span around each call. Layers a workload's own
// campaigns do not reach are probed with the nearest campaign that
// does: the other trial mode on the same app, the dse_search grid, or
// a Monte Carlo campaign sharded over in-process workers.
func replay(w *workload, seed uint64, tr *tracer, m metrics, served []outcome) error {
	em, models, err := developModels(w, tr, m)
	if err != nil {
		return err
	}

	// besst: compile and trials of client 0's first campaigns (for
	// dse_search, Monte Carlo campaigns at grid points).
	cs, sv := firstCampaigns(w, seed, replayCampaigns), served
	if w.kind == serve.KindSweep {
		cs, sv = gridProbes(w, seed), nil
	}
	if err := replayMC(em, models, cs, sv, tr, m); err != nil {
		return err
	}

	// groundtruth and stats: the per-step straggler maximum at the
	// workload's largest rank count, and single lognormal draws.
	largest := 0
	for _, c := range w.combos {
		largest = max(largest, c.Ranks)
	}
	if w.sweep != nil {
		for _, r := range w.sweep.Ranks {
			largest = max(largest, r)
		}
	}
	rng := stats.NewRNG(seed)
	n := max(1, 4_000_000/largest)
	d := tr.timed("groundtruth.StepMax", 0, func() {
		for i := 0; i < n; i++ {
			sink += groundtruth.StepMax(1, em.TimestepSigma, largest, rng)
		}
	})
	m.set("groundtruth.stepmax_us", float64(d.Nanoseconds())/1e3/float64(n), "us")
	const draws = 2_000_000
	d = tr.timed("stats.LogNormal", 0, func() {
		for i := 0; i < draws; i++ {
			sink += rng.LogNormal(0, em.TimestepSigma)
		}
	})
	m.set("stats.lognormal_ns", float64(d.Nanoseconds())/draws, "ns")

	// dse: the workload's own search campaign, or the dse_search grid.
	sweepW := w
	if w.kind != serve.KindSweep {
		sweepW, err = workloadByName("dse_search")
		if err != nil {
			return err
		}
	}
	if err := replayDSE(em, models, firstCampaigns(sweepW, seed, 1)[0], tr, m); err != nil {
		return err
	}

	// dist: the workload's own Monte Carlo campaigns, or mc_sharded's.
	distW := w
	if w.kind != serve.KindMonteCarlo {
		distW, err = workloadByName("mc_sharded")
		if err != nil {
			return err
		}
	}
	return replayDistributed(firstCampaigns(distW, seed, replayDist), tr, m)
}

// firstCampaigns regenerates client 0's first n requests.
func firstCampaigns(w *workload, seed uint64, n int) []campaign {
	s := newStream(w, seed, 0)
	out := make([]campaign, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// gridProbes are Monte Carlo campaigns at design points of the sweep
// grid, run the way a sweep evaluates a point: Direct mode, per-rank
// noise, the sweep's timesteps and Monte Carlo runs.
func gridProbes(w *workload, seed uint64) []campaign {
	probe := *w
	probe.mode = "direct"
	probe.steps = w.sweep.Timesteps
	rng := stats.NewRNG(seed)
	var out []campaign
	for _, r := range w.sweep.Ranks[1:4] {
		out = append(out, probe.mcRequest("replay", combo{EPR: 15, Ranks: r, Scenario: "l1l2", Replicas: 1}, w.sweep.MCRuns, rng.Uint64()|1))
	}
	return out
}

// developModels repeats the service's model development with spans
// around benchmark collection and each modeling method, and returns
// the workload's bundle.
func developModels(w *workload, tr *tracer, m metrics) (*groundtruth.Emulator, *workflow.Models, error) {
	em := groundtruth.NewQuartz()
	root := tr.start("model_development", 0, "")
	defer tr.end(root)
	var camp *benchdata.Campaign
	d := tr.timed("benchdata.CollectLulesh", root, func() {
		camp = benchdata.CollectLulesh(em, benchdata.CaseStudyPlan(modelSamples, modelSeed))
	})
	m.set("workflow.collect_s", d.Seconds(), "s")
	params := []string{"epr", "ranks"}
	var sym, tab *workflow.Models
	d = tr.timed("workflow.Develop.symreg", root, func() {
		sym = workflow.Develop(camp, workflow.SymbolicRegression, params, modelSeed+1)
	})
	m.set("symreg.fit_s", d.Seconds(), "s")
	d = tr.timed("workflow.Develop.interp", root, func() {
		tab = workflow.Develop(camp, workflow.Interpolation, params, modelSeed+1)
	})
	m.set("perfmodel.table_ms", ms(d), "ms")
	models := sym
	if w.method == "interp" {
		models = tab
	}
	var mapes []float64
	for _, r := range models.Reports {
		mapes = append(mapes, r.ValidationMAPE)
	}
	m.set("workflow.model_mape_pct", stats.Mean(mapes), "%")
	return em, models, nil
}

// replayMC compiles each campaign's app and runs its trials one
// TrialRunner call at a time, plus probeTrials trials in the other
// mode. When served outcomes are given, the replayed makespans must
// match the service's result.
func replayMC(em *groundtruth.Emulator, models *workflow.Models, cs []campaign, served []outcome, tr *tracer, m metrics) error {
	var compiles, direct, des, events []float64
	for i, c := range cs {
		var req serve.CampaignRequest
		if err := json.Unmarshal(c.raw, &req); err != nil {
			return err
		}
		id, _, _, err := serve.HashRequest(c.raw)
		if err != nil {
			return err
		}
		sc, err := scenarioFor(req.App.Scenario, req.App.Period)
		if err != nil {
			return err
		}
		root := tr.start("replay", 0, id)
		var cr *besst.CompiledRun
		d := tr.timed("besst.Compile", root, func() {
			cfg := em.Cost.Config
			app := lulesh.App(req.App.EPR, req.App.Ranks, req.App.Steps, sc, cfg)
			arch := beo.NewArchBEO(em.M, cfg.NodeSize)
			workflow.BindLulesh(arch, models)
			cr, err = besst.CompileErr(app, arch)
		})
		if err != nil {
			tr.end(root)
			return fmt.Errorf("replay compile: %w", err)
		}
		compiles = append(compiles, ms(d))

		runCfg, err := req.Run.Config()
		if err != nil {
			tr.end(root)
			return err
		}
		record := func(mode besst.Mode, d time.Duration, r *besst.Result) {
			if mode == besst.DES {
				des = append(des, ms(d))
				events = append(events, float64(r.Events))
			} else {
				direct = append(direct, ms(d))
			}
		}
		other := besst.DES
		if runCfg.Mode == besst.DES {
			other = besst.Direct
		}
		makespans := make([]float64, req.Trials)
		for _, mode := range []besst.Mode{runCfg.Mode, other} {
			cfg := runCfg
			cfg.Mode = mode
			runner, err := cr.TrialRunner(req.Trials, func(dst *besst.RunConfig) { *dst = cfg })
			if err != nil {
				tr.end(root)
				return err
			}
			trials := req.Trials
			if mode != runCfg.Mode {
				trials = min(trials, probeTrials)
			}
			for t := 0; t < trials; t++ {
				var r *besst.Result
				d := tr.timed("besst.trial."+mode.String(), root, func() { r = runner(t) })
				record(mode, d, r)
				if mode == runCfg.Mode {
					makespans[t] = r.Makespan
				}
			}
		}
		tr.end(root)
		if i < len(served) && served[i].err == nil {
			if err := sameMakespans(served[i].body, makespans); err != nil {
				return fmt.Errorf("replay of campaign %s: %w", id, err)
			}
		}
	}
	m.set("besst.compile_ms", median(compiles), "ms")
	m.set("besst.trial_direct_ms", median(direct), "ms")
	m.set("besst.trial_des_ms", median(des), "ms")
	m.set("besst.events_per_trial", median(events), "count")
	m.set("des.ns_per_event", median(des)*1e6/math.Max(1, median(events)), "ns")
	return nil
}

// sameMakespans checks replayed makespans against a served result
// document byte for byte (through their JSON encoding).
func sameMakespans(body []byte, makespans []float64) error {
	var doc serve.CampaignResult
	if err := json.Unmarshal(body, &doc); err != nil {
		return err
	}
	want, err := json.Marshal(doc.Makespans)
	if err != nil {
		return err
	}
	got, err := json.Marshal(makespans)
	if err != nil {
		return err
	}
	if !bytes.Equal(want, got) {
		return fmt.Errorf("replayed makespans differ from the served result")
	}
	return nil
}

// replayDSE prepares and searches a sweep campaign's grid, then
// evaluates every point exhaustively, one EvalPoint span each.
func replayDSE(em *groundtruth.Emulator, models *workflow.Models, c campaign, tr *tracer, m metrics) error {
	var req serve.CampaignRequest
	if err := json.Unmarshal(c.raw, &req); err != nil {
		return err
	}
	id, _, _, err := serve.HashRequest(c.raw)
	if err != nil {
		return err
	}
	var scenarios []lulesh.Scenario
	for _, name := range req.Sweep.Scenarios {
		sc, err := lulesh.ParseScenario(name)
		if err != nil {
			return err
		}
		scenarios = append(scenarios, sc)
	}
	cfg := dse.NewSweepConfig(
		dse.WithEPRs(req.Sweep.EPRs...),
		dse.WithRanks(req.Sweep.Ranks...),
		dse.WithScenarios(scenarios...),
		dse.WithTimesteps(req.Sweep.Timesteps),
		dse.WithMCRuns(req.Sweep.MCRuns),
		dse.WithSeed(req.Run.Seed),
		dse.WithConcurrency(1),
	)
	if err := cfg.Validate(); err != nil {
		return err
	}
	nodeSize := em.Cost.Config.NodeSize
	root := tr.start("replay", 0, id)
	defer tr.end(root)
	var ps *dse.PreparedSweep
	prep := tr.timed("dse.PrepareSweep", root, func() { ps = dse.PrepareSweep(models, em.M, nodeSize, cfg) })
	ps.AttachMemo(dse.NewMemo(0), "campaignbench-replay")
	var res *dse.SearchResult
	search := tr.timed("dse.Search", root, func() { res, err = ps.Search(dse.SearchConfig{Budget: req.Sweep.Search.Budget}) })
	if err != nil {
		return fmt.Errorf("replay search: %w", err)
	}

	ex := dse.PrepareSweep(models, em.M, nodeSize, cfg)
	best := math.Inf(1)
	evals := make([]float64, ex.NumPoints())
	for i := range evals {
		var mean float64
		evals[i] = ms(tr.timed("dse.EvalPoint", root, func() { mean = ex.EvalPoint(i) }))
		best = math.Min(best, mean)
	}
	eval := median(evals)
	m.set("dse.prepare_ms", ms(prep), "ms")
	m.set("dse.search_ms", ms(search), "ms")
	m.set("dse.evalpoint_ms", eval, "ms")
	m.set("dse.surrogate_ms", ms(search)-float64(res.FullSims)*eval, "ms")
	m.set("dse.sim_fraction", float64(res.FullSims)/float64(ps.NumPoints()), "ratio")
	m.set("dse.search_gap_pct", 100*(res.Best.MeanSec-best)/best, "%")
	return nil
}

// replayDistributed runs Monte Carlo campaigns through dist.RunRequest
// over three in-process workers at k=1 and k=3, and through
// ShardExecutor.ExecShard over the same shard ranges without RPC.
func replayDistributed(cs []campaign, tr *tracer, m metrics) error {
	var urls []string
	for i := 0; i < distWorkers; i++ {
		x := serve.NewShardExecutor(serve.ExecConfig{Workers: 1, CacheCap: 64})
		ts := httptest.NewServer(dist.WorkerHandler(dist.WorkerConfig{Executor: x}))
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	coords := map[int]*dist.Coordinator{}
	for _, k := range []int{1, 3} {
		coord, err := dist.NewCoordinator(dist.Config{Workers: urls, Shards: shards, Replicas: k})
		if err != nil {
			return err
		}
		coords[k] = coord
	}
	local := serve.NewShardExecutor(serve.ExecConfig{Workers: 1, CacheCap: 64})

	runs := map[int][]float64{}
	var floors []float64
	retries, divergences := 0, 0
	for _, c := range cs {
		plan, err := serve.ParsePlan(c.raw)
		if err != nil {
			return err
		}
		// Warm every worker's compile cache (k=3 reaches all of them)
		// and the local executor's, untimed.
		if _, _, err := dist.RunRequest(coords[3], c.raw, nil, nil); err != nil {
			return fmt.Errorf("dist warm-up: %w", err)
		}
		if _, err := local.ExecShard(plan.ID(), c.raw, 0, 1); err != nil {
			return err
		}
		root := tr.start("replay", 0, plan.ID())
		var want []byte
		for _, k := range []int{1, 3} {
			var body []byte
			var rep dist.Report
			d := tr.timed(fmt.Sprintf("dist.RunRequest.k%d", k), root, func() {
				body, rep, err = dist.RunRequest(coords[k], c.raw, nil, nil)
			})
			if err != nil {
				tr.end(root)
				return fmt.Errorf("dist k=%d: %w", k, err)
			}
			if want != nil && !bytes.Equal(want, body) {
				tr.end(root)
				return fmt.Errorf("dist k=1 and k=3 results differ for campaign %s", plan.ID())
			}
			want = body
			runs[k] = append(runs[k], ms(d))
			retries += rep.Retries
			divergences += len(rep.Divergences)
		}
		var floor time.Duration
		for _, r := range par.Split(plan.Units(), shards) {
			floor += tr.timed("dist.ExecShard", root, func() { _, err = local.ExecShard(plan.ID(), c.raw, r.Lo, r.Hi) })
			if err != nil {
				tr.end(root)
				return err
			}
		}
		tr.end(root)
		floors = append(floors, ms(floor))
	}
	m.set("dist.run_ms.k1", median(runs[1]), "ms")
	m.set("dist.run_ms.k3", median(runs[3]), "ms")
	m.set("dist.execshard_ms", median(floors), "ms")
	m.set("dist.retries", float64(retries), "count")
	m.set("dist.divergences", float64(divergences), "count")
	return nil
}
