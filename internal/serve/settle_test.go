package serve

import (
	"encoding/json"
	"testing"

	"besst/internal/obs"
)

// TestSettleKeepsStatusAndReleasesPlan checks that settling a campaign
// leaves its status document byte-identical while dropping the plan and
// collector a finished campaign no longer needs.
func TestSettleKeepsStatusAndReleasesPlan(t *testing.T) {
	id, canonical, sum, err := HashRequest([]byte(mcRequest))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := buildPlan(id, sum, canonical)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector()
	for i := 0; i < pl.trials; i++ {
		col.TrialStart(i)
		col.EngineTotals(100, 3)
		col.TrialDone(i)
	}
	col.TrialRetry(2, 1)
	c := &campaign{
		id: id, kind: pl.req.Kind, seed: pl.seed, tenant: "t",
		plan: pl, collector: col, state: stateDone, divergences: []string{"shard 1"},
	}
	s := NewServer(Config{})
	defer s.Drain()

	s.mu.Lock()
	before, err := json.Marshal(s.statusLocked(c))
	if err != nil {
		t.Fatal(err)
	}
	c.settleLocked()
	after, err := json.Marshal(s.statusLocked(c))
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatalf("status changed on settle:\nbefore %s\nafter  %s", before, after)
	}
	if c.plan != nil || c.collector != nil {
		t.Fatal("settled campaign still holds its plan or collector")
	}
	if c.settledAt.IsZero() {
		t.Fatal("settle did not stamp settledAt")
	}
}

// TestSettledCampaignsReleasePlans runs a campaign end to end and checks
// the daemon keeps only its status fields and result once it settles.
func TestSettledCampaignsReleasePlans(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})
	body := runToResult(t, ts.URL, mcRequest)
	st, _ := post(t, ts.URL, mcRequest) // re-admits; wait for it too
	final := waitState(t, ts.URL, st.ID)
	if final.Progress.TrialsDone != 6 || final.Kind != KindMonteCarlo || final.Seed == 0 {
		t.Fatalf("settled status lost fields: %+v", final)
	}
	srv.mu.Lock()
	c := srv.campaigns[st.ID]
	plan, col, res := c.plan, c.collector, c.result
	srv.mu.Unlock()
	if plan != nil || col != nil {
		t.Fatal("settled campaign still holds its plan or collector")
	}
	if string(res) != string(body) {
		t.Fatal("re-run result differs from the first run")
	}
}
