package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"besst/internal/serve"
)

// generated returns the first n requests of every client stream plus
// the set-up, warm-up, and replay probe campaigns.
func generated(w *workload, seed uint64, n int) []campaign {
	var out []campaign
	for c := 0; c < clients; c++ {
		s := newStream(w, seed, c)
		for i := 0; i < n; i++ {
			out = append(out, s.next())
		}
	}
	out = append(out, w.setupCampaign(seed))
	out = append(out, w.warmups(seed)...)
	if w.sweep != nil {
		out = append(out, gridProbes(w, seed)...)
	}
	return out
}

func TestSameSeedSameRequests(t *testing.T) {
	for _, w := range workloads {
		a, b := generated(w, 7, 40), generated(w, 7, 40)
		for i := range a {
			if !bytes.Equal(a[i].raw, b[i].raw) {
				t.Fatalf("%s: request %d differs between two generations from seed 7", w.name, i)
			}
		}
		c := generated(w, 8, 40)
		if bytes.Equal(a[0].raw, c[0].raw) {
			t.Errorf("%s: seeds 7 and 8 generated the same first request", w.name)
		}
	}
}

func TestGeneratedPointsAreValid(t *testing.T) {
	for _, w := range workloads {
		for seed := uint64(1); seed <= 5; seed++ {
			for i, c := range generated(w, seed, 60) {
				if _, err := serve.ParsePlan(c.raw); err != nil {
					t.Fatalf("%s seed %d request %d is not admissible: %v", w.name, seed, i, err)
				}
				var req serve.CampaignRequest
				if err := json.Unmarshal(c.raw, &req); err != nil {
					t.Fatal(err)
				}
				ranks := []int(nil)
				if req.App != nil {
					ranks = append(ranks, req.App.Ranks)
				}
				if req.Sweep != nil {
					ranks = append(ranks, req.Sweep.Ranks...)
				}
				for _, r := range ranks {
					if !validPoint(r) {
						t.Fatalf("%s seed %d request %d: ranks %d is not an even perfect cube <= %d", w.name, seed, i, r, maxRanks)
					}
				}
				if req.Run.Seed == 0 || req.Run.Workers != 1 {
					t.Fatalf("%s request %d: run seed %d workers %d; want a pinned seed and one worker", w.name, i, req.Run.Seed, req.Run.Workers)
				}
			}
		}
	}
}

func TestFreshRequestsHaveDistinctSeeds(t *testing.T) {
	for _, w := range workloads {
		seen := map[string]bool{}
		for c := 0; c < clients; c++ {
			s := newStream(w, 3, c)
			for i := 0; i < 60; i++ {
				cp := s.next()
				if cp.repostOf >= 0 {
					continue
				}
				if seen[string(cp.raw)] {
					t.Fatalf("%s client %d request %d repeats an earlier request", w.name, c, i)
				}
				seen[string(cp.raw)] = true
			}
		}
	}
}

func TestValidPoint(t *testing.T) {
	for r, want := range map[int]bool{8: true, 64: true, 1000: true, 4096: true, 27: false, 125: false, 4913: false, 0: false, 100: false} {
		if got := validPoint(r); got != want {
			t.Errorf("validPoint(%d) = %v, want %v", r, got, want)
		}
	}
}

// TestBenchmarkManifestMatches checks BENCHMARK.json at the repository
// root against the program: its workloads are the program's first ones,
// in order, and its metric names have the allowed form.
func TestBenchmarkManifestMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	if len(manifest.Workloads) < 2 || len(manifest.Workloads) > len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, want 2 to the program's %d", len(manifest.Workloads), len(workloads))
	}
	for i, w := range manifest.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	names := append(manifest.EndToEnd, manifest.PerLayer...)
	seen := map[string]bool{}
	for _, m := range names {
		if !metricName.MatchString(m.Name) {
			t.Errorf("metric name %q does not match %s", m.Name, metricName)
		}
		if seen[m.Name] {
			t.Errorf("metric name %q is listed twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, g := range ownershipGroups {
		if !seen["cpu_share."+g] {
			t.Errorf("BENCHMARK.json does not list cpu_share.%s", g)
		}
	}
}
