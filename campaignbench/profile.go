package main

import (
	"bufio"
	"context"
	"fmt"
	"os/exec"
	"sort"
	"strings"
	"time"
)

// ownershipGroups are the cpu_share.<group> buckets, in report order:
// the repository's layers, the standard-library packages a campaign
// crosses, and catch-alls.
var ownershipGroups = []string{
	"groundtruth", "stats", "symreg", "perfmodel", "des", "besst", "dse",
	"serve", "dist", "topo", "encoding_json", "net_http", "strconv",
	"runtime", "math", "besst_other", "other",
}

// modulePrefix is the import-path prefix of the repository's packages.
const modulePrefix = "besst/internal/"

// funcPackage returns the import path of the package a symbolized
// function name from pprof belongs to, e.g.
// "besst/internal/stats.(*RNG).LogNormal" -> "besst/internal/stats".
// Compiler-generated type functions ("type:.eq.besst/internal/des.portKey")
// belong to the type's package; symbols without a package qualifier
// are the runtime's assembly routines ("aeshashbody", "memeqbody").
func funcPackage(fn string) string {
	fn = strings.TrimPrefix(fn, "type:.eq.")
	fn = strings.TrimPrefix(fn, "type:.hash.")
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // drop generic type arguments
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return "runtime"
}

// ownershipGroup buckets a package import path.
func ownershipGroup(pkg string) string {
	switch {
	case strings.HasPrefix(pkg, modulePrefix):
		name := strings.TrimPrefix(pkg, modulePrefix)
		if i := strings.IndexByte(name, '/'); i >= 0 {
			name = name[:i]
		}
		for _, g := range ownershipGroups {
			if g == name {
				return g
			}
		}
		return "besst_other"
	case pkg == "encoding/json":
		return "encoding_json"
	case pkg == "net/http" || strings.HasPrefix(pkg, "net/http/"):
		return "net_http"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "math" || strings.HasPrefix(pkg, "math/"):
		return "math"
	case pkg == "strconv":
		return "strconv"
	}
	return "other"
}

// parseTop reads `go tool pprof -top` output and returns each function's
// flat (self) time.
func parseTop(out string) (map[string]time.Duration, error) {
	flat := map[string]time.Duration{}
	sc := bufio.NewScanner(strings.NewReader(out))
	inTable := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !inTable {
			inTable = strings.HasPrefix(line, "flat") && strings.Contains(line, "flat%")
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 6 {
			continue
		}
		d, err := parseFlat(fields[0])
		if err != nil {
			return nil, fmt.Errorf("pprof -top line %q: %w", line, err)
		}
		flat[strings.Join(fields[5:], " ")] += d
	}
	if !inTable {
		return nil, fmt.Errorf("pprof -top output has no table header")
	}
	return flat, sc.Err()
}

// parseFlat parses a pprof duration such as "1.20s", "10ms", or "0".
func parseFlat(s string) (time.Duration, error) {
	if s == "0" {
		return 0, nil
	}
	return time.ParseDuration(s)
}

// groupShares turns per-function self times into each ownership
// group's percentage of the total.
func groupShares(flat map[string]time.Duration) map[string]float64 {
	var total time.Duration
	by := map[string]time.Duration{}
	for fn, d := range flat {
		by[ownershipGroup(funcPackage(fn))] += d
		total += d
	}
	shares := make(map[string]float64, len(ownershipGroups))
	for _, g := range ownershipGroups {
		if total > 0 {
			shares[g] = 100 * float64(by[g]) / float64(total)
		} else {
			shares[g] = 0
		}
	}
	return shares
}

// cpuShares runs `go tool pprof -top` on a CPU profile and groups the
// self time by package.
func cpuShares(profile string) (map[string]float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-top", "-nodefraction=0", "-nodecount=1000000", profile)
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -top %s: %w", profile, err)
	}
	flat, err := parseTop(string(out))
	if err != nil {
		return nil, err
	}
	return groupShares(flat), nil
}

// owner is the group with the largest share.
func owner(shares map[string]float64) string {
	groups := append([]string(nil), ownershipGroups...)
	sort.SliceStable(groups, func(i, j int) bool { return shares[groups[i]] > shares[groups[j]] })
	return groups[0]
}
