package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// provenance stamps a report with the hardware, toolchain, code
// revision, and inputs it was measured with.
type provenance struct {
	CPUModel   string         `json:"cpu_model"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	GitCommit  string         `json:"git_commit"`
	Workload   string         `json:"workload"`
	Seed       uint64         `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      bool           `json:"trace"`
	Params     map[string]any `json:"params"`
}

func newProvenance(w *workload, seed uint64, seconds float64, trace bool) provenance {
	params := map[string]any{
		"kind": w.kind, "clients": clients, "model_method": w.method,
		"steps": w.steps, "min_setups": minSetups, "max_setups": maxSetups, "min_timed_campaigns": minTimed,
	}
	if w.kind == "monte_carlo" {
		params["mode"] = w.mode
		params["trials"] = w.trials
		params["combos"] = w.combos
		params["checkpoint_period"] = w.period
	} else {
		params["sweep"] = w.sweep
		params["repost_every"] = w.repostEvery
	}
	if w.dist {
		params["dist_workers"] = distWorkers
		params["dist_shards"] = shards
	}
	return provenance{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitCommit:  gitCommit(),
		Workload:   w.name,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
		Params:     params,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer func() { _ = f.Close() }()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit is the VCS revision the binary was built from: the Go
// toolchain's stamp when built inside a git checkout, else the
// BENCH_GIT_COMMIT environment variable, else "unknown".
func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	if c := os.Getenv("BENCH_GIT_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}
