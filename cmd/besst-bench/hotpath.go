package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"

	"besst/internal/benchdata"
	"besst/internal/beo"
	"besst/internal/besst"
	"besst/internal/des"
	"besst/internal/dse"
	"besst/internal/groundtruth"
	"besst/internal/lulesh"
	"besst/internal/workflow"
)

// The -hotpath harness measures the allocation-sensitive simulator
// benchmarks — raw DES event dispatch plus the two macro tiers — with
// testing.Benchmark and writes the machine-readable report that `make
// bench-compare` diffs against the committed baseline. The benchmarks
// mirror the root-package BenchmarkDESDispatch / BenchmarkMonteCarloDirect /
// BenchmarkOverheadSweep definitions (re-implemented here because a main
// package cannot import the repository root's external test file).

// hotHop forwards a decrementing counter to the next node of a ring
// with no handler work, so measured time is pure engine overhead.
type hotHop struct{ next des.LinkID }

func (h *hotHop) HandleEvent(ctx *des.Context, ev des.Event) {
	if n := ev.Payload.A; n > 0 {
		ctx.Send(h.next, 0, des.Payload{A: n - 1})
	}
}

const hotRingNodes = 64

// hotRing registers a ring of hotHop nodes, wires each to the next, and
// returns the first node.
func hotRing(register func(des.Component) des.ComponentID,
	connect func(src, dst des.ComponentID, latency des.Time) des.LinkID) des.ComponentID {
	hops := make([]*hotHop, hotRingNodes)
	ids := make([]des.ComponentID, hotRingNodes)
	for i := range hops {
		hops[i] = &hotHop{}
		ids[i] = register(hops[i])
	}
	for i, h := range hops {
		h.next = connect(ids[i], ids[(i+1)%hotRingNodes], 1)
	}
	return ids[0]
}

// benchDispatchSequential delivers b.N events through the sequential
// engine; one op is one delivered event.
func benchDispatchSequential(b *testing.B) {
	e := des.NewEngine()
	first := hotRing(e.Register, e.Connect)
	b.ReportAllocs()
	b.ResetTimer()
	e.ScheduleAt(0, first, des.Payload{A: int64(b.N)})
	e.Run(0)
}

// benchDispatchParallel drives two independent rings pinned to two
// partitions (intra-partition dispatch, wide lookahead).
func benchDispatchParallel(b *testing.B) {
	e := des.NewParallelEngine(2, 1000)
	part := 0
	register := func(c des.Component) des.ComponentID { return e.RegisterIn(part, c) }
	firstA := hotRing(register, e.Connect)
	part = 1
	firstB := hotRing(register, e.Connect)
	b.ReportAllocs()
	b.ResetTimer()
	e.ScheduleAt(0, firstA, des.Payload{A: int64(b.N / 2)})
	e.ScheduleAt(0, firstB, des.Payload{A: int64(b.N / 2)})
	e.Run(0)
}

func runHotpath(outPath, basePath string) {
	fmt.Fprintf(os.Stderr, "besst-bench: hotpath benchmarks (GOMAXPROCS %d)\n", runtime.GOMAXPROCS(0))
	// Everything below deliberately hardcodes the root bench harness's
	// parameters (symreg models, 8 samples, seeds 42/43) rather than the
	// CLI seed: the numbers must be directly comparable to the
	// BenchmarkMonteCarloDirect / BenchmarkOverheadSweep measurements the
	// committed baselines were taken from, and table-backed models would
	// shift both the constant factors and the allocation profile.
	em := groundtruth.NewQuartz()
	models, _ := workflow.DevelopLuleshQuartz(em, 8, workflow.SymbolicRegression, 42)

	// Macro tier 1: Monte Carlo replication over one compiled run
	// (Direct mode, serial), mirroring BenchmarkMonteCarloDirect/serial.
	const mcN = 32
	app := lulesh.App(15, 216, 60, lulesh.ScenarioL1L2, em.Cost.Config)
	arch := beo.NewArchBEO(em.M, em.Cost.Config.NodeSize)
	workflow.BindLulesh(arch, models)
	cr := besst.Compile(app, arch)
	mcOpts := []besst.Option{
		besst.WithMode(besst.Direct), besst.WithPerRankNoise(true),
		besst.WithSeed(42), besst.WithConcurrency(1),
	}

	// Macro tier 2: the DSE overhead sweep (serial), mirroring
	// BenchmarkOverheadSweep/serial.
	sweep := dse.SweepConfig{
		EPRs:      []int{10, 15},
		Ranks:     []int{8, 64},
		Scenarios: []lulesh.Scenario{lulesh.ScenarioNoFT, lulesh.ScenarioL1, lulesh.ScenarioL1L2},
		Timesteps: 40,
		MCRuns:    3,
		Seed:      43,
		Workers:   1,
	}

	report := benchdata.HotpathReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchmarks: []benchdata.HotpathEntry{
			hotEntry("DESDispatch/sequential", testing.Benchmark(benchDispatchSequential)),
			hotEntry("DESDispatch/parallel-2", testing.Benchmark(benchDispatchParallel)),
			hotEntry("MonteCarloDirect/serial", benchLoop(func() { cr.Replicate(mcN, mcOpts...) })),
			hotEntry("OverheadSweep/serial", benchLoop(func() {
				dse.OverheadSweep(models, em.M, em.Cost.Config.NodeSize, sweep)
			})),
		},
	}

	// Replace the macro tiers' b.N-averaged allocation counts with
	// deterministic measurements (see stableAllocs); their timings keep
	// the testing.Benchmark numbers above.
	report.Benchmarks[2].AllocsPerOp = stableAllocs(func() { cr.Replicate(mcN, mcOpts...) })
	report.Benchmarks[3].AllocsPerOp = stableAllocs(func() {
		dse.OverheadSweep(models, em.M, em.Cost.Config.NodeSize, sweep)
	})

	for _, b := range report.Benchmarks {
		fmt.Fprintf(os.Stderr, "  %-26s %12d ns/op %9d B/op %7d allocs/op\n",
			b.Name, b.NsPerOp, b.BytesPerOp, b.AllocsPerOp)
	}

	// When the committed pre-optimization snapshot is present, print the
	// improvement factors it documents.
	if base, err := benchdata.LoadHotpath(basePath); err == nil {
		for _, b := range report.Benchmarks {
			if old, ok := base.Lookup(b.Name); ok && b.NsPerOp > 0 {
				fmt.Fprintf(os.Stderr, "  %-26s vs pre-PR: %.2fx time, %dx allocs (%d -> %d)\n",
					b.Name, float64(old.NsPerOp)/float64(b.NsPerOp),
					allocFactor(old.AllocsPerOp, b.AllocsPerOp), old.AllocsPerOp, b.AllocsPerOp)
			}
		}
	}

	if dir := filepath.Dir(outPath); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatalf("mkdir %s: %v", dir, err)
		}
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatalf("marshal report: %v", err)
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		fatalf("write %s: %v", outPath, err)
	}
	fmt.Fprintf(os.Stderr, "besst-bench: wrote %s\n", outPath)
}

func hotEntry(name string, r testing.BenchmarkResult) benchdata.HotpathEntry {
	return benchdata.HotpathEntry{
		Name:        name,
		NsPerOp:     r.NsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// stableAllocs measures allocs/op deterministically for the macro-tier
// closures. testing.Benchmark's allocs/op folds one-time lazy inits and
// GC-driven sync.Pool refills into a b.N-dependent average, which
// wobbles the rounded count by ±1-2 between runs — fatal under
// benchdiff's zero-tolerance allocation gate. Here a warmup call
// performs every lazy init and fills the pools, then the garbage
// collector is paused so no pool is cleared mid-measurement, making the
// per-op count an exact property of the code path.
func stableAllocs(fn func()) int64 {
	fn() // warmup: lazy model state, pool fills, one-time runtime inits
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const iters = 3
	for i := 0; i < iters; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return int64((after.Mallocs - before.Mallocs) / iters)
}

func allocFactor(old, cur int64) int64 {
	if cur <= 0 {
		return old // zero allocs: report the eliminated count as the factor floor
	}
	return old / cur
}
