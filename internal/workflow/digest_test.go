package workflow

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"testing"

	"besst/internal/groundtruth"
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
