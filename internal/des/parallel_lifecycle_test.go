package des

import "testing"

// Lifecycle tests for the persistent-worker engine: full-Run allocation
// behaviour, Reset buffer reuse, Close semantics, and the adaptive
// window hook.

// TestParallelRunZeroAllocs pins the whole Run path — epoch barrier,
// worker wakeups, outbox exchange, inbox merge — at zero steady-state
// allocations. The warm-up run AllocsPerRun performs is what starts the
// workers and grows every buffer; after that, repeated Run/Reset cycles
// must not touch the heap.
func TestParallelRunZeroAllocs(t *testing.T) {
	e := NewParallelEngine(2, 10)
	defer e.Close()
	n := 0
	ea, eb := &allocEcho{n: &n}, &allocEcho{n: &n}
	a := e.RegisterIn(0, ea)
	b := e.RegisterIn(1, eb)
	ea.out, eb.out = e.ConnectBidirectional(a, b, 10)
	// Tickers keep both partitions active in the same windows, so the
	// multi-worker barrier path runs (a lone ping-pong would serialize
	// onto the inline single-active path).
	tickers := [2]*allocTicker{{}, {}}
	t0 := e.RegisterIn(0, tickers[0])
	t1 := e.RegisterIn(1, tickers[1])

	const bounces = 64
	const ticks = 256
	run := func() {
		e.Reset()
		n = bounces
		tickers[0].remaining = ticks
		tickers[1].remaining = ticks
		e.ScheduleAt(0, a, Payload{A: bounces})
		e.ScheduleAt(0, t0, Payload{})
		e.ScheduleAt(0, t1, Payload{})
		e.Run(0)
	}
	if avg := testing.AllocsPerRun(10, run); avg > 0 {
		t.Errorf("parallel Run: %.1f allocs/op on a warmed engine, want 0", avg)
	}
	if n != 0 || tickers[0].remaining != 0 || tickers[1].remaining != 0 {
		t.Fatalf("workload did not drain: n=%d ticks=%d/%d",
			n, tickers[0].remaining, tickers[1].remaining)
	}
}

// TestParallelResetReusesBuffers mirrors the Engine.Reset
// capacity-preservation test: Reset must keep the grown queue, outbox,
// and inbox backing arrays (so the next run starts warm) and empty
// them, so no stale event reaches the next run.
func TestParallelResetReusesBuffers(t *testing.T) {
	e := NewParallelEngine(2, 10)
	defer e.Close()
	n := 0
	ea, eb := &allocEcho{n: &n}, &allocEcho{n: &n}
	a := e.RegisterIn(0, ea)
	b := e.RegisterIn(1, eb)
	ea.out, eb.out = e.ConnectBidirectional(a, b, 10)
	n = 32
	e.ScheduleAt(0, a, Payload{A: 32})
	e.Run(0)

	// Leave queued and in-flight cross events, then Reset: white-box
	// because a drained engine has empty boxes.
	p0, p1 := e.parts[0], e.parts[1]
	e.ScheduleAt(e.Now()+1, a, Payload{Kind: 1})
	p0.out[1] = append(p0.out[1], crossEvent{ev: Event{Payload: Payload{Kind: 2}}})
	p1.inbox = append(p1.inbox, crossEvent{ev: Event{Payload: Payload{Kind: 3}}})

	qCap := cap(p0.queue.ev)
	outCap := cap(p0.out[1])
	inCap := cap(p1.inbox)
	if qCap == 0 || outCap == 0 || inCap == 0 {
		t.Fatalf("run left no grown buffers to check (caps %d/%d/%d)", qCap, outCap, inCap)
	}
	e.Reset()
	if got := cap(p0.queue.ev); got != qCap {
		t.Errorf("queue capacity %d after Reset, want %d kept", got, qCap)
	}
	if got := cap(p0.out[1]); got != outCap {
		t.Errorf("outbox capacity %d after Reset, want %d kept", got, outCap)
	}
	if got := cap(p1.inbox); got != inCap {
		t.Errorf("inbox capacity %d after Reset, want %d kept", got, inCap)
	}
	if p0.queue.len() != 0 || len(p0.out[1]) != 0 || len(p1.inbox) != 0 {
		t.Fatalf("Reset left events behind: queue %d, outbox %d, inbox %d",
			p0.queue.len(), len(p0.out[1]), len(p1.inbox))
	}

	// The engine must run the same workload again on the kept workers.
	n = 32
	e.ScheduleAt(0, a, Payload{A: 32})
	e.Run(0)
	if n != 0 {
		t.Fatalf("rerun after Reset left n=%d, want 0", n)
	}
}

func TestParallelCloseIdempotent(t *testing.T) {
	e := NewParallelEngine(2, 10)
	n := 0
	ea, eb := &allocEcho{n: &n}, &allocEcho{n: &n}
	a := e.RegisterIn(0, ea)
	b := e.RegisterIn(1, eb)
	ea.out, eb.out = e.ConnectBidirectional(a, b, 10)
	n = 8
	e.ScheduleAt(0, a, Payload{A: 8})
	e.Run(0)
	processed := e.Processed()
	e.Close()
	e.Close() // idempotent
	if e.Processed() != processed {
		t.Fatalf("Close perturbed Processed: %d vs %d", e.Processed(), processed)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Run on a closed engine did not panic")
		}
	}()
	e.Run(0)
}

func TestParallelCloseNeverStarted(t *testing.T) {
	e := NewParallelEngine(4, 10)
	e.Close() // no workers ever started: must not hang or panic
}

// windowRecorder captures WindowClosed hooks (fired from the
// coordinator goroutine, i.e. the Run caller — no locking needed).
type windowRecorder struct {
	windows     int
	localEvents int
	crossSent   int
	unbounded   int
}

func (r *windowRecorder) EventDispatch(int, int, int, int64)      {}
func (r *windowRecorder) EventReturn(int, int, int64)             {}
func (r *windowRecorder) EventQueued(int, int, int, int64, int64) {}
func (r *windowRecorder) BarrierArrive(int, int, int64)           {}
func (r *windowRecorder) BarrierResume(int, int, int64)           {}
func (r *windowRecorder) RebalanceApplied(int, int, uint64, uint64) {
}

func (r *windowRecorder) WindowClosed(stream, part int, windowNs, widthNs int64, localEvents, crossSent int) {
	r.windows++
	r.localEvents += localEvents
	r.crossSent += crossSent
	if widthNs < 0 {
		r.unbounded++
	}
}

func TestParallelWindowClosedHook(t *testing.T) {
	e := NewParallelEngine(2, 10)
	defer e.Close()
	rec := &windowRecorder{}
	e.SetTracer(rec, 0)
	a := &echo{}
	bcomp := &echo{}
	aid := e.RegisterIn(0, a)
	bid := e.RegisterIn(1, bcomp)
	a.next, bcomp.next = e.ConnectBidirectional(aid, bid, 10)
	e.ScheduleAt(0, aid, Payload{A: 10})
	e.Run(0)

	if rec.windows == 0 {
		t.Fatal("WindowClosed never fired")
	}
	// 11 deliveries total; every forward (10 of them) crosses partitions.
	if rec.localEvents != 11 {
		t.Fatalf("local events sum %d, want 11", rec.localEvents)
	}
	if rec.crossSent != 10 {
		t.Fatalf("cross-sent sum %d, want 10", rec.crossSent)
	}
}
