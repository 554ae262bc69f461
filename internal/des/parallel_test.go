package des

import (
	"sync"
	"testing"
)

// echo bounces a counter over its next link (to a peer or the next
// component of a ring) until the counter reaches zero, recording each
// arrival time.
type echo struct {
	mu    sync.Mutex
	next  LinkID
	times []Time
}

func (c *echo) HandleEvent(ctx *Context, ev Event) {
	n := ev.Payload.A
	c.mu.Lock()
	c.times = append(c.times, ctx.Now())
	c.mu.Unlock()
	if n > 0 {
		ctx.Send(c.next, 0, Payload{A: n - 1})
	}
}

func TestParallelPingPong(t *testing.T) {
	e := NewParallelEngine(2, 10)
	a := &echo{}
	b := &echo{}
	aid := e.RegisterIn(0, a)
	bid := e.RegisterIn(1, b)
	a.next, b.next = e.ConnectBidirectional(aid, bid, 10)
	e.ScheduleAt(0, aid, Payload{A: 10})
	end := e.Run(0)
	// 11 deliveries total (n=10..0), alternating partitions, 10ns apart
	// starting at t=0, so the last arrives at t=100.
	total := len(a.times) + len(b.times)
	if total != 11 {
		t.Fatalf("total deliveries = %d, want 11", total)
	}
	if a.times[len(a.times)-1] != 100 && b.times[len(b.times)-1] != 100 {
		t.Fatalf("last delivery not at 100: a=%v b=%v", a.times, b.times)
	}
	if end < 100 {
		t.Fatalf("end time %v < 100", end)
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	// Build the same ring of pingers on both engines and compare
	// delivery traces.
	build := func(reg func(i int, c Component) ComponentID,
		connect func(src, dst ComponentID, lat Time) LinkID) []*echo {
		const n = 8
		comps := make([]*echo, n)
		ids := make([]ComponentID, n)
		for i := 0; i < n; i++ {
			comps[i] = &echo{}
			ids[i] = reg(i, comps[i])
		}
		for i := 0; i < n; i++ {
			comps[i].next = connect(ids[i], ids[(i+1)%n], 100)
		}
		return comps
	}

	seq := NewEngine()
	seqComps := build(
		func(i int, c Component) ComponentID { return seq.Register(c) },
		seq.Connect)
	seq.ScheduleAt(0, 0, Payload{A: 40})
	seq.Run(0)

	par := NewParallelEngine(4, 100)
	parComps := build(
		func(i int, c Component) ComponentID { return par.RegisterIn(i%4, c) },
		par.Connect)
	par.ScheduleAt(0, 0, Payload{A: 40})
	par.Run(0)

	for i := range seqComps {
		s, p := seqComps[i].times, parComps[i].times
		if len(s) != len(p) {
			t.Fatalf("component %d delivery count %d vs %d", i, len(s), len(p))
		}
		for j := range s {
			if s[j] != p[j] {
				t.Fatalf("component %d delivery %d at %v vs %v", i, j, s[j], p[j])
			}
		}
	}
}

func TestParallelDeterministicAcrossRuns(t *testing.T) {
	run := func() []Time {
		e := NewParallelEngine(3, 5)
		comps := make([]*echo, 6)
		ids := make([]ComponentID, 6)
		for i := range comps {
			comps[i] = &echo{}
			ids[i] = e.RegisterIn(i%3, comps[i])
		}
		for i := range ids {
			comps[i].next = e.Connect(ids[i], ids[(i+1)%len(ids)], 5)
		}
		e.ScheduleAt(0, ids[0], Payload{A: 30})
		e.ScheduleAt(0, ids[3], Payload{A: 30})
		e.Run(0)
		var all []Time
		for _, c := range comps {
			all = append(all, c.times...)
		}
		return all
	}
	a := run()
	b := run()
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverges at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestParallelCrossLinkBelowLookaheadPanics(t *testing.T) {
	e := NewParallelEngine(2, 100)
	a := e.RegisterIn(0, &echo{})
	b := e.RegisterIn(1, &echo{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unsafe cross-partition link")
		}
	}()
	e.Connect(a, b, 50)
}

func TestParallelIntraPartitionShortLinkAllowed(t *testing.T) {
	e := NewParallelEngine(2, 100)
	a := &echo{}
	b := &echo{}
	aid := e.RegisterIn(0, a)
	bid := e.RegisterIn(0, b) // same partition: latency below lookahead is fine
	a.next, b.next = e.ConnectBidirectional(aid, bid, 1)
	e.ScheduleAt(0, aid, Payload{A: 4})
	e.Run(0)
	if len(a.times)+len(b.times) != 5 {
		t.Fatalf("deliveries = %d, want 5", len(a.times)+len(b.times))
	}
}

func TestParallelHorizon(t *testing.T) {
	e := NewParallelEngine(2, 10)
	a, b := &echo{}, &echo{}
	aid := e.RegisterIn(0, a)
	bid := e.RegisterIn(1, b)
	a.next, b.next = e.ConnectBidirectional(aid, bid, 10)
	e.ScheduleAt(1000, aid, Payload{A: 5})
	end := e.Run(500)
	if end != 500 {
		t.Fatalf("end = %v, want 500", end)
	}
	if len(a.times) != 0 {
		t.Fatal("no events should have run before horizon")
	}
}

// TestParallelHorizonMidWindow is the regression test for the horizon
// clamp: with a lookahead wider than the event spacing, a horizon that
// bisects a window previously let partitions process events beyond it.
// The parallel engine must deliver exactly the events the sequential
// engine delivers, report the same Processed() count immediately after
// the horizon-bounded Run (no stale per-partition tallies), stop its
// clock at the horizon, and be resumable to an identical full trace.
func TestParallelHorizonMidWindow(t *testing.T) {
	const horizon = Time(5)

	seq := NewEngine()
	sa, sb := &echo{}, &echo{}
	said := seq.Register(sa)
	sbid := seq.Register(sb)
	sa.next, sb.next = seq.ConnectBidirectional(said, sbid, 1)
	seq.ScheduleAt(0, said, Payload{A: 20})
	seqEnd := seq.Run(horizon)

	par := NewParallelEngine(2, 10)
	pa, pb := &echo{}, &echo{}
	paid := par.RegisterIn(0, pa)
	pbid := par.RegisterIn(0, pb) // same partition: spacing 1 < lookahead 10
	pa.next, pb.next = par.ConnectBidirectional(paid, pbid, 1)
	par.ScheduleAt(0, paid, Payload{A: 20})
	parEnd := par.Run(horizon)

	if parEnd != seqEnd || parEnd != horizon {
		t.Fatalf("end times: parallel %v, sequential %v, want %v", parEnd, seqEnd, horizon)
	}
	if par.Processed() != seq.Processed() {
		t.Fatalf("processed after horizon run: parallel %d, sequential %d",
			par.Processed(), seq.Processed())
	}
	compare := func(label string, want, got []Time) {
		t.Helper()
		if len(want) != len(got) {
			t.Fatalf("%s: %d deliveries vs sequential %d", label, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("%s: delivery %d at %v, sequential at %v", label, i, got[i], want[i])
			}
		}
	}
	compare("a@horizon", sa.times, pa.times)
	compare("b@horizon", sb.times, pb.times)

	// Resume past the horizon: both engines must complete identically.
	seq.Run(0)
	par.Run(0)
	if par.Processed() != seq.Processed() || par.Processed() != 21 {
		t.Fatalf("processed after resume: parallel %d, sequential %d, want 21",
			par.Processed(), seq.Processed())
	}
	compare("a@end", sa.times, pa.times)
	compare("b@end", sb.times, pb.times)
}

func TestParallelProcessedCount(t *testing.T) {
	e := NewParallelEngine(2, 10)
	a := &echo{}
	b := &echo{}
	aid := e.RegisterIn(0, a)
	bid := e.RegisterIn(1, b)
	a.next, b.next = e.ConnectBidirectional(aid, bid, 10)
	e.ScheduleAt(0, aid, Payload{A: 6})
	e.Run(0)
	if e.Processed() != 7 {
		t.Fatalf("processed = %d, want 7", e.Processed())
	}
}

func TestParallelBadPartitionPanics(t *testing.T) {
	e := NewParallelEngine(2, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.RegisterIn(5, &echo{})
}

func TestParallelPartitionsAccessor(t *testing.T) {
	if NewParallelEngine(3, 10).Partitions() != 3 {
		t.Fatal("partitions wrong")
	}
}

func TestParallelConstructorPanics(t *testing.T) {
	for i, fn := range []func(){
		func() { NewParallelEngine(0, 10) },
		func() { NewParallelEngine(2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestParallelSchedulePastPanics(t *testing.T) {
	e := NewParallelEngine(2, 10)
	ca, cb := &echo{}, &echo{}
	a := e.RegisterIn(0, ca)
	b := e.RegisterIn(1, cb)
	ca.next, cb.next = e.ConnectBidirectional(a, b, 10)
	e.ScheduleAt(0, a, Payload{A: 2})
	e.Run(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.ScheduleAt(0, a, Payload{A: 1}) // engine clock has advanced past 0
}
