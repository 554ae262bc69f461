package des

import "testing"

// These tests pin the central performance property of the engine
// refactor: once an engine is warmed (queue capacity grown, links
// wired), the steady-state event path — pop, dispatch, schedule, push —
// performs zero heap allocations. Typed payloads keep event content out
// of interfaces, the inlined heap keeps events out of container/heap's
// `any` boxing, and the reused Context kills the per-dispatch escape.
// A regression here silently reintroduces per-event garbage, which is
// exactly what the bench-regression gate exists to catch; this test
// catches it in tier-1 `go test ./...` without running benchmarks.

// allocEcho bounces an event back over its out link while the shared
// countdown is positive, exercising the link-send path.
type allocEcho struct {
	n   *int
	out LinkID
}

func (e *allocEcho) HandleEvent(ctx *Context, ev Event) {
	if *e.n > 0 {
		*e.n--
		ctx.Send(e.out, 0, Payload{Kind: 1, A: int64(*e.n)})
	}
}

// allocTicker counts down via self events, exercising ScheduleSelf.
type allocTicker struct{ remaining int }

func (t *allocTicker) HandleEvent(ctx *Context, ev Event) {
	if t.remaining > 0 {
		t.remaining--
		ctx.ScheduleSelf(1, Payload{Kind: 2, A: int64(t.remaining)})
	}
}

func TestSequentialDispatchZeroAllocs(t *testing.T) {
	e := NewEngine()
	n := 0
	ea, eb := &allocEcho{n: &n}, &allocEcho{n: &n}
	a := e.Register(ea)
	b := e.Register(eb)
	ea.out, eb.out = e.ConnectBidirectional(a, b, 1)

	const events = 512
	run := func() {
		e.Reset()
		n = events
		e.ScheduleAt(0, a, Payload{A: events})
		e.Run(0)
	}
	// AllocsPerRun invokes run once as warm-up before measuring, which
	// is when the queue's backing array grows to steady-state capacity.
	if avg := testing.AllocsPerRun(10, run); avg > 0 {
		t.Errorf("sequential dispatch: %.1f allocs/op on a warmed engine, want 0", avg)
	}
}

func TestParallelWindowDispatchZeroAllocs(t *testing.T) {
	// White-box view of the per-partition steady state: runWindow is the
	// code every worker spends its life in, and it must not allocate.
	// TestParallelRunZeroAllocs covers the full Run path (barrier,
	// outboxes, exchange) on top of it.
	e := NewParallelEngine(2, 10)
	tickers := [2]*allocTicker{{}, {}}
	ids := [2]ComponentID{
		e.RegisterIn(0, tickers[0]),
		e.RegisterIn(1, tickers[1]),
	}

	const events = 256
	run := func() {
		e.Reset()
		for i, tk := range tickers {
			tk.remaining = events
			e.ScheduleAt(0, ids[i], Payload{})
		}
		for _, p := range e.parts {
			p.runWindow(events + 2)
		}
	}
	if avg := testing.AllocsPerRun(10, run); avg > 0 {
		t.Errorf("partition window dispatch: %.1f allocs/op on a warmed engine, want 0", avg)
	}
	// Sanity: the ticker chains actually drained inside the window.
	for i, tk := range tickers {
		if tk.remaining != 0 {
			t.Fatalf("partition %d processed only part of its chain (%d left)", i, tk.remaining)
		}
	}
}
