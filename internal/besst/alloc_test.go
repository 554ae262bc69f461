package besst

import (
	"testing"

	"besst/internal/beo"
	"besst/internal/lulesh"
	"besst/internal/machine"
	"besst/internal/perfmodel"
)

// tableArch binds interpolation tables benchmarked at 8 and 64 ranks,
// so a run at 8 ranks draws stored samples and one at 216 ranks draws
// rescaled off-grid samples.
func tableArch() *beo.ArchBEO {
	arch := beo.NewArchBEO(machine.Quartz(), 2)
	for i, op := range []string{lulesh.OpTimestep, lulesh.OpCkptL1, lulesh.OpCkptL2} {
		tab := perfmodel.NewTable(op, "epr", "ranks")
		for _, ranks := range []float64{8, 64} {
			for k := 0; k < 5; k++ {
				p := perfmodel.Params{"epr": 10, "ranks": ranks}
				tab.Add(p, 0.01*float64(i+1)*(1+ranks/64)*(1+0.05*float64(k)))
			}
		}
		arch.Bind(op, tab)
	}
	return arch
}

// trialAllocs counts the heap allocations of one DES Monte Carlo trial
// on a warmed, reused simulation — what every pooled trial after the
// first runs on. 120 steps give every result series at least 16 bytes
// of capacity, so none is a tiny allocation the runtime may merge with
// the next one.
func trialAllocs(t *testing.T, ranks int) float64 {
	t.Helper()
	cr := Compile(lulesh.App(10, ranks, 120, lulesh.ScenarioL1L2, cfg), tableArch())
	s := newDesSim(cr)
	trial := NewRunConfig(WithMode(DES), WithMonteCarlo(true), WithSeed(5))
	s.run(trial, 0) // grow the engine's queue to its steady-state capacity
	return testing.AllocsPerRun(8, func() { s.run(trial, 1) })
}

// TestDESTrialAllocsIndependentOfRanks pins the pointer-free event path
// end to end: a pooled DES trial allocates only its Result and the two
// result series, the same count at 8 ranks as at 216, so no allocation
// happens per event, per rank or per model draw.
func TestDESTrialAllocsIndependentOfRanks(t *testing.T) {
	small, large := trialAllocs(t, 8), trialAllocs(t, 216)
	if small != large {
		t.Fatalf("pooled DES trial allocates %.0f times at 8 ranks but %.0f at 216", small, large)
	}
	if small != 3 {
		t.Fatalf("pooled DES trial allocates %.0f times, want 3 (Result and its two series)", small)
	}
}
