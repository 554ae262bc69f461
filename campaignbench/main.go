// Command campaignbench is the repository's end-to-end benchmark. It
// starts an in-process besst-serve (and, for the sharded workload,
// three in-process besst-worker handlers) on loopback listeners, drives
// it with closed-loop serveclient clients posting a seeded stream of
// campaign requests, checks every result, and prints the end-to-end
// metrics. With -trace 1 it also replays the campaigns with spans around
// each layer's public functions and a CPU profile, and prints the
// per-layer metrics and which package owns the time.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash campaignbench/run.sh --workload mc_straggler --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed, and metrics. See README.md for the
// metrics, workloads, and the layer ownership table.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"syscall"
	"time"

	"besst/internal/cli"
	"besst/internal/serve"
)

// A run sets the service up from nothing at least minSetups times, and
// keeps repeating cheap set-ups until they have taken setupBudget or
// maxSetups is reached; setup_s is the median.
const (
	minSetups   = 3
	maxSetups   = 41
	setupBudget = 500 * time.Millisecond
)

// timedChunks is how many chunks the untraced timed phase is split
// into. The set-ups after the first are spread over the gaps between
// them.
const timedChunks = 5

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

// metricName is the form every metric name takes.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func (m metrics) set(name string, v float64, unit string) {
	if !metricName.MatchString(name) {
		panic(fmt.Sprintf("campaignbench: invalid metric name %q", name))
	}
	m[name] = metric{Value: v, Unit: unit}
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// report is the full record of a run, written beside the summary.
type report struct {
	Provenance provenance `json:"provenance"`
	Summary    summary    `json:"summary"`
	// Samples is the timed phase's latency sample count.
	Samples int `json:"timed_campaigns"`
	// ModeLatencyMS lists the timed latencies per mode of the mix.
	ModeLatencyMS map[string][]float64 `json:"mode_latency_ms"`
	// WindowP50MS is the timed phase's median latency per two-second
	// window of completion time, to show drift within a run.
	WindowP50MS []float64 `json:"window_p50_ms"`
	// SetupS lists every set-up time of the run.
	SetupS     []float64   `json:"setup_s"`
	FailedFrac float64     `json:"failed_frac"`
	Validation validation  `json:"validation"`
	Statz      serve.Statz `json:"statz"`
	Traced     *traceInfo  `json:"traced,omitempty"`
	Errors     []string    `json:"errors,omitempty"`
}

func main() {
	workloadName := flag.String("workload", "", "workload to run: mc_straggler | mc_des | dse_search | mc_sharded")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed generates the same requests")
	seconds := flag.Float64("seconds", 10, "timed closed-loop phase length in seconds")
	trace := flag.Int("trace", 0, "1: also run the traced replay and print per-layer metrics")
	outDir := flag.String("out", filepath.Join(".bench_build", "campaignbench", "out"), "directory for reports, traces, and profiles")
	manifest := flag.String("manifest", "BENCHMARK.json", "benchmark manifest whose end_to_end (or, traced, per_layer) metric names the output must cover exactly")
	flag.Parse()

	out := cli.Stdout()
	w, err := workloadByName(*workloadName)
	if err != nil {
		fatal(err)
	}
	if *seed == 0 {
		fatal(errors.New("-seed must be positive"))
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	base := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *trace))
	want, err := manifestMetrics(*manifest, *trace == 1)
	if err != nil {
		fatal(err)
	}
	rep := run(w, *seed, *seconds, *trace == 1, base)
	if err := sameNames(rep.Summary.Metrics, want); err != nil {
		rep.Summary.Correct = false
		rep.Errors = append(rep.Errors, err.Error())
	}

	doc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(base+".json", doc, 0o644); err != nil {
		fatal(err)
	}
	printHuman(out, rep, base+".json")
	line, err := json.Marshal(rep.Summary)
	if err != nil {
		fatal(err)
	}
	out.Println(string(line))
	out.ExitOnErr("campaignbench")
}

// manifestMetrics reads the metric names a run must print: the
// manifest's end_to_end list, or its per_layer list for traced runs.
func manifestMetrics(path string, traced bool) ([]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	list := doc.EndToEnd
	if traced {
		list = doc.PerLayer
	}
	names := make([]string, len(list))
	for i, m := range list {
		names[i] = m.Name
	}
	return names, nil
}

// sameNames checks that m holds exactly the named metrics.
func sameNames(m metrics, want []string) error {
	var missing, extra []string
	for _, n := range want {
		if _, ok := m[n]; !ok {
			missing = append(missing, n)
		}
	}
	listed := map[string]bool{}
	for _, n := range want {
		listed[n] = true
	}
	for n := range m {
		if !listed[n] {
			extra = append(extra, n)
		}
	}
	if len(missing)+len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("metrics differ from the manifest: missing %v, unlisted %v", missing, extra)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "campaignbench: %v\n", err)
	os.Exit(2)
}

// run executes one benchmark run and assembles its report.
func run(w *workload, seed uint64, seconds float64, traced bool, base string) report {
	rep := report{Provenance: newProvenance(w, seed, seconds, traced)}
	sum := &rep.Summary
	sum.Metrics = metrics{}
	fail := func(err error) {
		sum.Failed++
		rep.Errors = append(rep.Errors, err.Error())
	}
	count := func(outs []outcome) {
		for _, o := range outs {
			sum.Attempted++
			if o.err != nil {
				fail(o.err)
			}
		}
	}

	// Set-up: start the service from nothing and run the first
	// campaign, which misses every cache. The first fleet serves the
	// timed phase; the other set-ups run in the gaps between its chunks.
	var setups []float64
	var spent time.Duration
	setUpOnce := func() (*fleet, bool) {
		d, fl, outs, err := setUp(w, seed)
		count(outs)
		if err != nil {
			fail(err)
			return nil, false
		}
		setups = append(setups, d.Seconds())
		spent += d
		return fl, true
	}
	f, ok := setUpOnce()
	if !ok {
		return finish(&rep)
	}
	count(postAll(f, w.warmups(seed), nil))

	// Timed phase: one closed-loop client per stream, in chunks. Set-ups
	// between the chunks spread the measurement over more of the host's
	// slow and fast spells than one contiguous stretch would.
	chunks := timedChunks
	if traced {
		chunks = 1
	}
	streams := newStreams(w, seed)
	outs := make([][]outcome, len(streams))
	busy := make([]time.Duration, len(streams))
	done := 0
	for i := 0; i < chunks; i++ {
		spec := loadSpec{seconds: seconds / float64(chunks)}
		if i == chunks-1 {
			spec.minDone = int64(minTimed - done)
		}
		before := make([]int, len(outs))
		for c := range outs {
			before[c] = len(outs[c])
		}
		chunkStart := time.Now()
		for c, d := range closedLoop(f, streams, outs, spec, nil) {
			busy[c] += d
		}
		chunk := make([][]outcome, len(outs))
		for c := range outs {
			chunk[c] = outs[c][before[c]:]
			done += len(chunk[c])
		}
		rep.WindowP50MS = append(rep.WindowP50MS, windowMedians(chunk, chunkStart, 2*time.Second)...)
		if traced || i == chunks-1 {
			continue
		}
		// Gaps 0..i together hold their share of the set-ups after the
		// first: of minSetups, of maxSetups, and of setupBudget.
		gaps := chunks - 1
		least := 1 + (i+1)*(minSetups-1)/gaps
		most := 1 + (i+1)*(maxSetups-1)/gaps
		budget := setupBudget * time.Duration(i+1) / time.Duration(gaps)
		for len(setups) < most && (len(setups) < least || spent < budget) {
			fl, ok := setUpOnce()
			if !ok {
				f.close()
				return finish(&rep)
			}
			fl.close()
		}
	}
	lat := timedMetrics(outs, busy)
	for _, co := range outs {
		count(co)
	}
	rep.Samples = lat.n
	rep.ModeLatencyMS = modeLatencies(outs)
	rep.SetupS = setups
	st, err := f.statz(context.Background())
	if err != nil {
		fail(err)
	}
	rep.Statz = st

	if !traced {
		var first []outcome
		k := w.validationSize()
		for c, co := range outs {
			if len(co) < k {
				fail(fmt.Errorf("client %d completed %d campaigns, fewer than its %d validation campaigns", c, len(co), k))
			}
			first = append(first, co[:min(k, len(co))]...)
		}
		rep.Validation = validate(w, f, first)
		sum.Attempted += rep.Validation.Attempted
		sum.Failed += rep.Validation.Failed
		rep.Errors = append(rep.Errors, rep.Validation.Errors...)
		f.close()

		m := sum.Metrics
		m.set("setup_s", median(setups), "s")
		m.set("campaign_p50_ms", lat.p50, "ms")
		m.set("campaign_p90_ms", lat.p90, "ms")
		m.set("campaigns_per_s", lat.perSec, "1/s")
		m.set("sim_mape_pct", rep.Validation.SimMAPEPct, "%")
		m.set("max_rss_mb", maxRSSMB(), "MB")
		if !lat.ok {
			fail(fmt.Errorf("%d timed campaigns: too few for p90 with %d samples beyond it", lat.n, minBeyond))
		}
		return finish(&rep)
	}

	f.close()
	counts := make([]int, len(outs))
	for i, co := range outs {
		counts[i] = len(co)
	}
	info, err := traceRun(w, seed, counts, lat, base, sum.Metrics, count)
	if err != nil {
		fail(err)
	}
	rep.Traced = info
	return finish(&rep)
}

func finish(rep *report) report {
	s := &rep.Summary
	s.Correct = s.Failed == 0 && s.Attempted > 0
	if s.Attempted > 0 {
		rep.FailedFrac = float64(s.Failed) / float64(s.Attempted)
	}
	return *rep
}

// setUp starts a fleet and runs the set-up campaign through it,
// returning the time from the first server's construction to the
// campaign's result bytes.
func setUp(w *workload, seed uint64) (time.Duration, *fleet, []outcome, error) {
	begin := time.Now()
	f, err := startFleet(w)
	if err != nil {
		return 0, nil, nil, err
	}
	c := w.setupCampaign(seed)
	p := newPoster(nil)
	defer p.close()
	o := p.post(f.front(c), c)
	d := time.Since(begin)
	if o.err != nil {
		f.close()
		return d, nil, []outcome{o}, fmt.Errorf("set-up campaign: %w", o.err)
	}
	return d, f, []outcome{o}, nil
}

func newStreams(w *workload, seed uint64) []*stream {
	streams := make([]*stream, clients)
	for c := range streams {
		streams[c] = newStream(w, seed, c)
	}
	return streams
}

// latencies summarizes a closed-loop phase.
type latencies struct {
	n        int
	p50, p90 float64 // ms
	perSec   float64
	ok       bool // p90 reportable
}

// timedMetrics summarizes the successful campaigns of a closed-loop
// phase. Throughput is the sum of the clients' rates, each client's
// completed campaigns over its busy time.
func timedMetrics(outs [][]outcome, busy []time.Duration) latencies {
	var xs []float64
	var perSec float64
	for c, co := range outs {
		n := 0
		for _, o := range co {
			if o.err == nil {
				xs = append(xs, ms(o.latency))
				n++
			}
		}
		if busy[c] > 0 {
			perSec += float64(n) / busy[c].Seconds()
		}
	}
	l := latencies{n: len(xs), perSec: perSec}
	var ok50 bool
	l.p50, ok50 = percentile(xs, 0.5)
	l.p90, l.ok = percentile(xs, 0.9)
	l.ok = l.ok && ok50
	return l
}

// modeLatencies lists the timed latencies, sorted, per mode of the mix: the
// rank count and replication degree of a Monte Carlo campaign, or
// fresh versus re-posted search campaigns.
func modeLatencies(outs [][]outcome) map[string][]float64 {
	by := map[string][]float64{}
	for _, co := range outs {
		for _, o := range co {
			if o.err != nil {
				continue
			}
			key := fmt.Sprintf("ranks=%d/k=%d", o.c.combo.Ranks, o.c.combo.Replicas)
			if o.c.cells > 0 {
				key = "fresh"
				if o.c.repostOf >= 0 {
					key = "repost"
				}
			}
			by[key] = append(by[key], ms(o.latency))
		}
	}
	for _, xs := range by {
		sort.Float64s(xs)
	}
	return by
}

// windowMedians is the median latency of the campaigns finishing in
// each window of the given width after start.
func windowMedians(outs [][]outcome, start time.Time, width time.Duration) []float64 {
	var by [][]float64
	for _, co := range outs {
		for _, o := range co {
			if o.err != nil {
				continue
			}
			i := int(o.finished.Sub(start) / width)
			for len(by) <= i {
				by = append(by, nil)
			}
			by[i] = append(by[i], ms(o.latency))
		}
	}
	med := make([]float64, len(by))
	for i, xs := range by {
		med[i] = median(xs)
	}
	return med
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func printHuman(out *cli.Printer, rep report, path string) {
	p := rep.Provenance
	out.Printf("campaignbench %s seed=%d seconds=%g trace=%v\n", p.Workload, p.Seed, p.Seconds, p.Trace)
	out.Printf("  provenance: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s\n", p.CPUModel, p.NProc, p.GOMAXPROCS, p.GoVersion, p.GitCommit)
	out.Printf("  timed campaigns: %d  attempted: %d  failed: %d (failed_frac %.4f)\n",
		rep.Samples, rep.Summary.Attempted, rep.Summary.Failed, rep.FailedFrac)
	if !p.Trace {
		v := rep.Validation
		out.Printf("  validation: %d campaigns, result digest %s, sim_mape_pct %.4f", v.Campaigns, v.Digest, v.SimMAPEPct)
		if v.LocalIdentical != nil {
			out.Printf(", byte-identical to in-process %v", *v.LocalIdentical)
		}
		if p.Params["kind"] == "dse_sweep" {
			out.Printf(", search_gap_pct %.4f", v.SearchGapPct)
		}
		out.Println()
	}
	names := make([]string, 0, len(rep.Summary.Metrics))
	for n := range rep.Summary.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Summary.Metrics[n]
		out.Printf("  %-32s %14.6f %s\n", n, m.Value, m.Unit)
	}
	if rep.Traced != nil {
		printOwnership(out, rep.Traced)
	}
	for _, e := range rep.Errors {
		out.Printf("  error: %s\n", e)
	}
	out.Printf("  report: %s\n", path)
}
