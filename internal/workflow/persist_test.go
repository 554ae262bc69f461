package workflow

import (
	"bytes"
	"strings"
	"testing"

	"besst/internal/lulesh"
	"besst/internal/perfmodel"
	"besst/internal/stats"
)

func TestSaveLoadSymregRoundTrip(t *testing.T) {
	sr, _, _ := developed(t)
	var buf bytes.Buffer
	if err := sr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.ByOp) != len(sr.ByOp) {
		t.Fatalf("ops %d != %d", len(back.ByOp), len(sr.ByOp))
	}
	// Predictions must be bit-identical across the grid.
	for op, orig := range sr.ByOp {
		loaded := back.ByOp[op]
		for _, epr := range []float64{5, 15, 30} {
			for _, ranks := range []float64{8, 512, 1331} {
				p := perfmodel.Params{"epr": epr, "ranks": ranks}
				if orig.Predict(p) != loaded.Predict(p) {
					t.Fatalf("%s prediction differs after round trip at %v", op, p.Key())
				}
			}
		}
	}
	// Sampling variance survives (residual sigma restored).
	rng1, rng2 := stats.NewRNG(1), stats.NewRNG(1)
	p := perfmodel.Params{"epr": 15, "ranks": 64}
	a := sr.ByOp[lulesh.OpCkptL1].Bind(p).Sample(rng1)
	b := back.ByOp[lulesh.OpCkptL1].Bind(p).Sample(rng2)
	if a != b {
		t.Fatalf("sample streams diverge after round trip: %v vs %v", a, b)
	}
	// Reports carried over.
	if back.Report(lulesh.OpTimestep).ValidationMAPE != sr.Report(lulesh.OpTimestep).ValidationMAPE {
		t.Fatal("report lost in round trip")
	}
}

func TestSaveLoadTableRoundTrip(t *testing.T) {
	_, it, _ := developed(t)
	var buf bytes.Buffer
	if err := it.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for op, orig := range it.ByOp {
		loaded := back.ByOp[op]
		for _, epr := range []float64{5, 12.5, 25} {
			p := perfmodel.Params{"epr": epr, "ranks": 216}
			if orig.Predict(p) != loaded.Predict(p) {
				t.Fatalf("%s table prediction differs at %v", op, p.Key())
			}
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not json")); err == nil {
		t.Fatal("expected error")
	}
	if _, err := Load(strings.NewReader(`{"models":{}}`)); err == nil {
		t.Fatal("expected error for empty bundle")
	}
	if _, err := Load(strings.NewReader(`{"models":{"x":{"kind":"alien","data":{}}}}`)); err == nil {
		t.Fatal("expected error for unknown kind")
	}
}
