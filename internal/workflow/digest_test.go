package workflow

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"testing"

	"besst/internal/beo"
	"besst/internal/besst"
	"besst/internal/groundtruth"
	"besst/internal/lulesh"
	"besst/internal/symreg"
)

// serveDefaultBundleDigest is the SHA-256 of the symbolic-regression
// bundle besst-serve develops by default (Quartz, 10 samples per
// combination, seed 1): every fitted model's JSON plus every report,
// floats by their bit patterns. Any change to the GP's random stream,
// its arithmetic, or the fitness scan order moves it.
const serveDefaultBundleDigest = "b24d28bad9a7b8b7eae0afbb0182d3114955944d97c361cc6510303b626e5751"

func bundleDigest(t *testing.T, ms *Models) string {
	t.Helper()
	h := sha256.New()
	ops := make([]string, 0, len(ms.ByOp))
	for op := range ms.ByOp {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		f, ok := ms.ByOp[op].(*symreg.Fitted)
		if !ok {
			t.Fatalf("op %s: model is %T, want *symreg.Fitted", op, ms.ByOp[op])
		}
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s\n%s\n", op, data)
	}
	for _, r := range ms.Reports {
		fmt.Fprintf(h, "%s|%d|%x|%x|%x|%s\n", r.Op, r.Method,
			math.Float64bits(r.TrainMAPE), math.Float64bits(r.TestMAPE),
			math.Float64bits(r.ValidationMAPE), r.Expression)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestServeDefaultBundleDigest pins model development byte for byte:
// the fitted expressions, their constants, scales, residual sigmas and
// reported errors must not move under refactors or parallel scoring.
func TestServeDefaultBundleDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("develops the full symbolic-regression bundle")
	}
	models, _ := DevelopLuleshQuartz(groundtruth.NewQuartz(), 10, SymbolicRegression, 1)
	if got := bundleDigest(t, models); got != serveDefaultBundleDigest {
		t.Fatalf("bundle digest %s, want %s", got, serveDefaultBundleDigest)
	}
}

// The campaign digests are SHA-256 sums of Monte Carlo result payloads
// simulated over the interpolation-table bundle besst-serve develops for
// method "interp" (Quartz, 10 samples per combination, seed 1): 8
// trials of 60 timesteps at 8, 64 and 216 ranks under both
// checkpointing scenarios, plus one off-grid EPR that exercises the
// tables' interpolated draws. They pin the table sampling path together
// with the DES event graph and the Direct per-rank straggler draws,
// byte for byte.
const (
	desCampaignDigest    = "1716b869a7a74b223f3df8cb32ee38c764b795b0897ab71e63d85bead5a2aa9d"
	directCampaignDigest = "ee56980e6d2a2b17b839b74e820229f43dd974fe20c22b1eb38409abe000498d"
)

func campaignDigest(t *testing.T, opts ...besst.Option) string {
	t.Helper()
	em := groundtruth.NewQuartz()
	models, _ := DevelopLuleshQuartz(em, 10, Interpolation, 1)
	cfg := em.Cost.Config
	h := sha256.New()
	for _, sc := range []lulesh.Scenario{lulesh.ScenarioL1, lulesh.ScenarioL1L2} {
		for _, epr := range []int{10, 12} {
			for _, ranks := range []int{8, 64, 216} {
				app := lulesh.App(epr, ranks, 60, sc, cfg)
				arch := beo.NewArchBEO(em.M, cfg.NodeSize)
				BindLulesh(arch, models)
				seed := besst.WithSeed(uint64(epr*1000 + ranks))
				rs := besst.Compile(app, arch).Replicate(8, append(opts, seed, besst.WithConcurrency(1))...)
				for i, r := range rs {
					data, err := r.Payload()
					if err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(h, "%s|%d|%d|%d|%s\n", sc.Name, epr, ranks, i, data)
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestDESCampaignDigest(t *testing.T) {
	if got := campaignDigest(t, besst.WithMode(besst.DES)); got != desCampaignDigest {
		t.Fatalf("DES campaign digest %s, want %s", got, desCampaignDigest)
	}
}

func TestDirectCampaignDigest(t *testing.T) {
	got := campaignDigest(t, besst.WithMode(besst.Direct), besst.WithPerRankNoise(true))
	if got != directCampaignDigest {
		t.Fatalf("Direct campaign digest %s, want %s", got, directCampaignDigest)
	}
}
