package perfmodel

import (
	"encoding/json"
	"testing"

	"besst/internal/stats"
)

func TestTableJSONRoundTrip(t *testing.T) {
	tab := NewTable("k", "x", "y")
	tab.Add(Params{"x": 1, "y": 2}, 10)
	tab.Add(Params{"x": 1, "y": 2}, 12)
	tab.Add(Params{"x": 3, "y": 2}, 30)
	tab.Add(Params{"x": 1, "y": 4}, 40)

	data, err := json.Marshal(tab)
	if err != nil {
		t.Fatal(err)
	}
	var back Table
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Points() != tab.Points() {
		t.Fatalf("points %d != %d", back.Points(), tab.Points())
	}
	for _, p := range []Params{
		{"x": 1, "y": 2}, {"x": 2, "y": 2}, {"x": 5, "y": 3},
	} {
		if tab.Predict(p) != back.Predict(p) {
			t.Fatalf("prediction differs at %v", p.Key())
		}
	}
	// Raw samples survive, so Monte Carlo draws match too.
	r1, r2 := stats.NewRNG(3), stats.NewRNG(3)
	for i := 0; i < 20; i++ {
		a := tab.Bind(Params{"x": 1, "y": 2}).Sample(r1)
		b := back.Bind(Params{"x": 1, "y": 2}).Sample(r2)
		if a != b {
			t.Fatalf("sample %d differs: %v vs %v", i, a, b)
		}
	}
}

func TestTableJSONDeterministicEncoding(t *testing.T) {
	tab := NewTable("k", "x")
	tab.Add(Params{"x": 2}, 1)
	tab.Add(Params{"x": 1}, 2)
	a, _ := json.Marshal(tab)
	b, _ := json.Marshal(tab)
	if string(a) != string(b) {
		t.Fatal("non-deterministic encoding")
	}
}

func TestTableJSONRejectsBadInput(t *testing.T) {
	cases := []string{
		`{"label":"k","params":[],"points":[]}`,
		`{"label":"k","params":["x"],"points":[{"coord":[1,2],"samples":[1]}]}`,
		`{"label":"k","params":["x"],"points":[{"coord":[1],"samples":[-5]}]}`,
		`not json`,
	}
	for i, c := range cases {
		var tab Table
		if err := json.Unmarshal([]byte(c), &tab); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}
