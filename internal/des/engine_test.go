package des

import (
	"testing"
	"testing/quick"
)

// recorder logs the order and time of every event it receives.
type recorder struct {
	times    []Time
	payloads []Payload
	links    []LinkID
}

func (r *recorder) HandleEvent(ctx *Context, ev Event) {
	r.times = append(r.times, ctx.Now())
	r.payloads = append(r.payloads, ev.Payload)
	r.links = append(r.links, ev.Link)
}

// pinger sends count messages over its out link, one per received event.
type pinger struct {
	remaining int
	out       LinkID
}

func (p *pinger) HandleEvent(ctx *Context, ev Event) {
	if p.remaining <= 0 {
		return
	}
	p.remaining--
	ctx.Send(p.out, 0, Payload{A: int64(p.remaining)})
	if p.remaining > 0 {
		ctx.ScheduleSelf(Microsecond, Payload{})
	}
}

func TestFromSeconds(t *testing.T) {
	if FromSeconds(1) != Second {
		t.Fatal("1s conversion wrong")
	}
	if FromSeconds(-5) != 0 {
		t.Fatal("negative seconds should clamp to zero")
	}
	if FromSeconds(1e-9) != Nanosecond {
		t.Fatal("1ns conversion wrong")
	}
}

func TestTimeRoundTripProperty(t *testing.T) {
	f := func(ns uint32) bool {
		tm := Time(ns)
		return FromSeconds(tm.Seconds()) == tm
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialOrdering(t *testing.T) {
	e := NewEngine()
	r := &recorder{}
	id := e.Register(r)
	e.ScheduleAt(30, id, Payload{Kind: 3})
	e.ScheduleAt(10, id, Payload{Kind: 1})
	e.ScheduleAt(20, id, Payload{Kind: 2})
	e.Run(0)
	if len(r.payloads) != 3 {
		t.Fatalf("got %d events", len(r.payloads))
	}
	for i, want := range []int32{1, 2, 3} {
		if r.payloads[i].Kind != want {
			t.Fatalf("event %d = %v, want %v", i, r.payloads[i], want)
		}
	}
	if r.times[0] != 10 || r.times[2] != 30 {
		t.Fatalf("bad times %v", r.times)
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := NewEngine()
	r := &recorder{}
	id := e.Register(r)
	for i := 0; i < 10; i++ {
		e.ScheduleAt(5, id, Payload{A: int64(i)})
	}
	e.Run(0)
	for i := 0; i < 10; i++ {
		if r.payloads[i].A != int64(i) {
			t.Fatalf("tie-break not FIFO: %v", r.payloads)
		}
	}
}

func TestLinkLatencyDelivery(t *testing.T) {
	e := NewEngine()
	p := &pinger{remaining: 1}
	r := &recorder{}
	pid := e.Register(p)
	rid := e.Register(r)
	p.out = e.Connect(pid, rid, 50)
	e.ScheduleAt(100, pid, Payload{})
	e.Run(0)
	if len(r.times) != 1 || r.times[0] != 150 {
		t.Fatalf("delivery times %v, want [150]", r.times)
	}
	if r.links[0] != p.out {
		t.Fatalf("arrival link %d, want %d", r.links[0], p.out)
	}
}

func TestHorizonStopsClock(t *testing.T) {
	e := NewEngine()
	r := &recorder{}
	id := e.Register(r)
	e.ScheduleAt(10, id, Payload{})
	e.ScheduleAt(1000, id, Payload{})
	end := e.Run(100)
	if end != 100 {
		t.Fatalf("end = %v, want 100", end)
	}
	if len(r.times) != 1 {
		t.Fatalf("processed %d events, want 1", len(r.times))
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
}

func TestSelfScheduleChain(t *testing.T) {
	e := NewEngine()
	p := &pinger{remaining: 5}
	r := &recorder{}
	pid := e.Register(p)
	rid := e.Register(r)
	p.out = e.Connect(pid, rid, 1)
	e.ScheduleAt(0, pid, Payload{})
	e.Run(0)
	if len(r.times) != 5 {
		t.Fatalf("got %d pings, want 5", len(r.times))
	}
	if e.Processed() != 10 { // 5 pinger events + 5 recorder events
		t.Fatalf("processed = %d, want 10", e.Processed())
	}
}

// selfTicker records the link of every event it receives and
// reschedules itself while ticks remain.
type selfTicker struct {
	left  int
	links []LinkID
}

func (s *selfTicker) HandleEvent(ctx *Context, ev Event) {
	s.links = append(s.links, ev.Link)
	if s.left > 0 {
		s.left--
		ctx.ScheduleSelf(1, Payload{})
	}
}

func TestSelfAndInitialEventsCarryNoLink(t *testing.T) {
	e := NewEngine()
	s := &selfTicker{left: 2}
	e.ScheduleAt(0, e.Register(s), Payload{})
	e.Run(0)
	if len(s.links) != 3 {
		t.Fatalf("got %d events, want 3", len(s.links))
	}
	for i, l := range s.links {
		if l != NoLink {
			t.Fatalf("event %d arrived on link %d, want NoLink", i, l)
		}
	}
}

func TestConnectMintsDenseLinkIDs(t *testing.T) {
	e := NewEngine()
	a := e.Register(&recorder{})
	b := e.Register(&recorder{})
	for want := LinkID(0); want < 4; want++ {
		if got := e.Connect(a, b, 1); got != want {
			t.Fatalf("link %d, want %d", got, want)
		}
	}
}

// TestSendOnMissingPortPanics covers a send on a link the handling
// component does not own: here the link runs from its peer to it.
func TestSendOnMissingPortPanics(t *testing.T) {
	e := NewEngine()
	p := &pinger{remaining: 1}
	pid := e.Register(p)
	rid := e.Register(&recorder{})
	p.out = e.Connect(rid, pid, 1)
	e.ScheduleAt(0, pid, Payload{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for missing link")
		}
	}()
	e.Run(0)
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	id := e.Register(&recorder{})
	e.ScheduleAt(10, id, Payload{})
	e.Run(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for past scheduling")
		}
	}()
	e.ScheduleAt(5, id, Payload{})
}

func TestBidirectionalLink(t *testing.T) {
	e := NewEngine()
	a := &recorder{}
	b := &pinger{remaining: 1}
	aid := e.Register(a)
	bid := e.Register(b)
	ab, ba := e.ConnectBidirectional(aid, bid, 7)
	b.out = ba
	e.ScheduleAt(0, bid, Payload{})
	e.Run(0)
	if len(a.times) != 1 || a.times[0] != 7 || a.links[0] != ba {
		t.Fatalf("bidirectional delivery failed: %v on %v", a.times, a.links)
	}
	if ab == ba {
		t.Fatalf("both directions share link %d", ab)
	}
}

func TestStep(t *testing.T) {
	e := NewEngine()
	r := &recorder{}
	id := e.Register(r)
	e.ScheduleAt(1, id, Payload{})
	e.ScheduleAt(2, id, Payload{})
	if !e.Step() || len(r.times) != 1 {
		t.Fatal("first step failed")
	}
	if !e.Step() || len(r.times) != 2 {
		t.Fatal("second step failed")
	}
	if e.Step() {
		t.Fatal("step on empty queue should return false")
	}
}

func TestTimeFormatting(t *testing.T) {
	if Second.String() != "1.000000s" {
		t.Fatalf("string = %q", Second.String())
	}
	if Millisecond.Duration().Milliseconds() != 1 {
		t.Fatal("duration conversion wrong")
	}
}

func TestLinkLatencyAccessor(t *testing.T) {
	e := NewEngine()
	probe := &latencyProbe{}
	a := e.Register(probe)
	b := e.Register(&recorder{})
	probe.out = e.Connect(a, b, 42)
	e.ScheduleAt(0, a, Payload{})
	e.Run(0)
	if probe.seen != 42 {
		t.Fatalf("latency = %v, want 42", probe.seen)
	}
}

type latencyProbe struct {
	out  LinkID
	seen Time
}

func (p *latencyProbe) HandleEvent(ctx *Context, ev Event) {
	p.seen = ctx.LinkLatency(p.out)
}

func TestNegativeLinkLatencyPanics(t *testing.T) {
	e := NewEngine()
	a := e.Register(&recorder{})
	b := e.Register(&recorder{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Connect(a, b, -1)
}

func TestRegisterDuringRunPanics(t *testing.T) {
	e := NewEngine()
	id := e.Register(&registrar{eng: e})
	e.ScheduleAt(0, id, Payload{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Run(0)
}

type registrar struct{ eng *Engine }

func (r *registrar) HandleEvent(ctx *Context, ev Event) {
	r.eng.Register(&recorder{})
}
