package main

import (
	"math"
	"os"
	"testing"
	"time"
)

func TestParseTopGroupsByPackage(t *testing.T) {
	raw, err := os.ReadFile("testdata/pprof_top.txt")
	if err != nil {
		t.Fatal(err)
	}
	flat, err := parseTop(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got := flat["besst/internal/groundtruth.StepMax"]; got != 4*time.Second {
		t.Errorf("StepMax flat = %v, want 4s", got)
	}
	if got := flat["besst/internal/serve.(*Server).execute"]; got != 0 {
		t.Errorf("execute flat = %v, want 0", got)
	}
	want := map[string]float64{
		"groundtruth": 40, "stats": 15, "math": 10, "runtime": 13,
		"encoding_json": 4, "net_http": 3, "des": 3, "serve": 2,
		"besst_other": 2, "strconv": 2, "other": 6,
		"symreg": 0, "perfmodel": 0, "besst": 0, "dse": 0, "dist": 0, "topo": 0,
	}
	shares := groupShares(flat)
	if len(shares) != len(ownershipGroups) {
		t.Errorf("%d groups, want %d", len(shares), len(ownershipGroups))
	}
	for g, w := range want {
		if math.Abs(shares[g]-w) > 1e-9 {
			t.Errorf("cpu_share.%s = %v, want %v", g, shares[g], w)
		}
	}
	if got := owner(shares); got != "groundtruth" {
		t.Errorf("owner = %s, want groundtruth", got)
	}
}

func TestParseTopRejectsOtherOutput(t *testing.T) {
	if _, err := parseTop("no profile here\n"); err == nil {
		t.Error("want an error for output without a table header")
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"besst/internal/stats.(*RNG).LogNormal":               "besst/internal/stats",
		"besst/internal/besst.simulateDirect.func1":           "besst/internal/besst",
		"net/http.(*conn).serve":                              "net/http",
		"runtime.mallocgc":                                    "runtime",
		"memeqbody":                                           "runtime",
		"type:.eq.besst/internal/des.portKey":                 "besst/internal/des",
		"slices.SortFunc[go.shape.[]besst/internal/dse.Cell]": "slices",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}
