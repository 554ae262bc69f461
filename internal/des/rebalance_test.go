package des

import "testing"

// ticker schedules itself every nanosecond until its counter runs out;
// the initial payload controls how many events it generates, so tests
// can build arbitrarily skewed per-component loads.
type ticker struct {
	seen int
}

func (c *ticker) HandleEvent(ctx *Context, ev Event) {
	c.seen++
	if ev.Payload.A > 0 {
		ctx.ScheduleSelf(1, Payload{A: ev.Payload.A - 1})
	}
}

// rebalanceRecorder captures the adaptive rebalance hook.
type rebalanceRecorder struct {
	fired     int
	moved     int
	maxBefore uint64
	maxAfter  uint64
}

func (r *rebalanceRecorder) EventDispatch(int, int, int, int64)      {}
func (r *rebalanceRecorder) EventReturn(int, int, int64)             {}
func (r *rebalanceRecorder) EventQueued(int, int, int, int64, int64) {}
func (r *rebalanceRecorder) BarrierArrive(int, int, int64)           {}
func (r *rebalanceRecorder) BarrierResume(int, int, int64)           {}
func (r *rebalanceRecorder) WindowClosed(int, int, int64, int64, int, int) {
}

func (r *rebalanceRecorder) RebalanceApplied(stream, moved int, maxBefore, maxAfter uint64) {
	r.fired++
	r.moved = moved
	r.maxBefore = maxBefore
	r.maxAfter = maxAfter
}

func TestRebalanceMovesSkewedLoad(t *testing.T) {
	e := NewParallelEngine(2, 10)
	defer e.Close()
	rec := &rebalanceRecorder{}
	e.SetTracer(rec, 3)
	// Everything lands in partition 0 with wildly uneven self-loads;
	// partition 1 starts empty.
	weights := []int64{40, 30, 5, 5}
	ids := make([]ComponentID, len(weights))
	for i := range weights {
		ids[i] = e.RegisterIn(0, &ticker{})
	}
	for i, w := range weights {
		e.ScheduleAt(0, ids[i], Payload{A: w})
	}
	e.Run(0)

	loads := e.ComponentLoads()
	for i, w := range weights {
		if loads[i] != uint64(w)+1 {
			t.Fatalf("component %d load = %d, want %d", i, loads[i], w+1)
		}
	}

	e.Reset()
	d := e.Rebalance()
	if !d.Applied || d.Moved == 0 {
		t.Fatalf("decision = %+v, want an applied move", d)
	}
	if d.MaxLoadAfter >= d.MaxLoadBefore {
		t.Fatalf("max load %d -> %d, want strict improvement", d.MaxLoadBefore, d.MaxLoadAfter)
	}
	// Greedy LPT on {41,31,6,6} over two bins: 41 alone, 31+6+6 together.
	if d.MaxLoadBefore != 84 || d.MaxLoadAfter != 43 {
		t.Fatalf("max load %d -> %d, want 84 -> 43", d.MaxLoadBefore, d.MaxLoadAfter)
	}
	if rec.fired != 1 || rec.moved != d.Moved || rec.maxBefore != 84 || rec.maxAfter != 43 {
		t.Fatalf("RebalanceApplied hook saw fired=%d moved=%d %d->%d",
			rec.fired, rec.moved, rec.maxBefore, rec.maxAfter)
	}
	if e.partOf[0] == e.partOf[1] {
		t.Fatalf("two heaviest components still share partition %d", e.partOf[0])
	}

	// The engine must still run correctly under the new assignment.
	for i, w := range weights {
		e.ScheduleAt(0, ids[i], Payload{A: w})
	}
	e.Run(0)
	for i, w := range weights {
		if got := e.ComponentLoads()[i]; got != 2*(uint64(w)+1) {
			t.Fatalf("component %d load after rerun = %d, want %d", i, got, 2*(w+1))
		}
	}
}

func TestRebalanceKeepsSubLookaheadClusters(t *testing.T) {
	e := NewParallelEngine(2, 10)
	defer e.Close()
	// Components 0 and 1 are joined by a latency-2 link (< lookahead), so
	// any reassignment must move them together.
	a := e.RegisterIn(0, &ticker{})
	b := e.RegisterIn(0, &ticker{})
	c := e.RegisterIn(0, &ticker{})
	e.Connect(a, b, 2)
	e.ScheduleAt(0, a, Payload{A: 20})
	e.ScheduleAt(0, b, Payload{A: 20})
	e.ScheduleAt(0, c, Payload{A: 30})
	e.Run(0)
	e.Reset()
	d := e.Rebalance()
	if !d.Applied {
		t.Fatalf("decision = %+v, want applied", d)
	}
	if e.partOf[a] != e.partOf[b] {
		t.Fatalf("sub-lookahead pair split across partitions %d and %d",
			e.partOf[a], e.partOf[b])
	}
	if e.partOf[c] == e.partOf[a] {
		t.Fatalf("rebalance left everything in partition %d", e.partOf[c])
	}
}

func TestRebalanceNoImprovementUnapplied(t *testing.T) {
	e := NewParallelEngine(2, 10)
	defer e.Close()
	a := e.RegisterIn(0, &ticker{})
	b := e.RegisterIn(1, &ticker{})
	e.ScheduleAt(0, a, Payload{A: 10})
	e.ScheduleAt(0, b, Payload{A: 10})
	e.Run(0)
	e.Reset()
	d := e.Rebalance()
	if d.Applied || d.Moved != 0 {
		t.Fatalf("decision = %+v, want unapplied no-op on balanced loads", d)
	}
	if e.partOf[a] != 0 || e.partOf[b] != 1 {
		t.Fatalf("unapplied pass mutated assignment: %v", e.partOf)
	}
}

func TestRebalancePendingEventsPanics(t *testing.T) {
	e := NewParallelEngine(2, 10)
	id := e.RegisterIn(0, &ticker{})
	e.ScheduleAt(5, id, Payload{})
	defer func() {
		if recover() == nil {
			t.Fatal("Rebalance with queued events did not panic")
		}
	}()
	e.Rebalance()
}

// TestRebalanceThenRunMatchesSequential reruns a cross-partition
// workload after a committed rebalance and checks it still reproduces
// the sequential engine exactly — the reassignment must rebuild the
// widening matrices, not just the component map.
func TestRebalanceThenRunMatchesSequential(t *testing.T) {
	r := testRand(123)
	for trial := 0; trial < 20; trial++ {
		nparts := 2 + r.intn(3)
		tp := genTopology(&r, nparts)

		seq := NewEngine()
		seqComps := tp.build(
			func(i int, c Component) ComponentID { return seq.Register(c) },
			seq.Connect, seq.ScheduleAt)
		seq.Run(0)

		par := NewParallelEngine(nparts, wideningLookahead)
		var parComps []*hopRelay
		// Warm-up run measures loads; the topology generator never links
		// across partitions below the lookahead, so clusters stay movable.
		warm := tp.build(
			func(i int, c Component) ComponentID { return par.RegisterIn(tp.partOf[i], c) },
			par.Connect, par.ScheduleAt)
		par.Run(0)
		par.Reset()
		par.Rebalance() // applied or not, the engine must stay correct
		for _, c := range warm {
			c.times = c.times[:0]
		}
		parComps = warm
		for _, in := range tp.inits {
			par.ScheduleAt(in.t, in.c, Payload{A: in.a})
		}
		par.Run(0)
		par.Close()

		for i := range seqComps {
			s, p := seqComps[i].times, parComps[i].times
			if len(s) != len(p) {
				t.Fatalf("trial %d: component %d delivery count %d vs %d",
					trial, i, len(p), len(s))
			}
			for j := range s {
				if s[j] != p[j] {
					t.Fatalf("trial %d: component %d delivery %d at %d vs %d (ns)",
						trial, i, j, p[j], s[j])
				}
			}
		}
	}
}
