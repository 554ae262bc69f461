package des

import "fmt"

// Payload is the typed content of an event. Kind is a component-defined
// message tag and A/B carry two integer arguments inline, so protocol
// messages travel without heap allocation and events stay pointer-free.
type Payload struct {
	Kind int32
	A, B int64
}

// LinkID identifies a unidirectional link wired with Engine.Connect.
type LinkID int32

// NoLink tags events that did not arrive over a link: self events and
// initial events seeded with ScheduleAt.
const NoLink LinkID = -1

// Event is a timestamped message delivered to a component. It holds no
// pointers, so queue moves are plain copies the garbage collector never
// scans.
type Event struct {
	Time    Time
	Dst     ComponentID
	Link    LinkID // link the event arrived on (NoLink for self and initial events)
	Payload Payload

	seq uint64 // FIFO tie-breaker for deterministic ordering
}

// ComponentID identifies a component registered with an engine.
type ComponentID int

// Component is the unit of simulation. HandleEvent is invoked once per
// delivered event with the engine's clock already advanced to the event
// time. Components react by scheduling self events and sending on links.
type Component interface {
	// HandleEvent processes one event. ctx provides scheduling and
	// link-send operations valid only for the duration of the call;
	// implementations must not retain ctx (the engine reuses one
	// Context across all dispatches).
	HandleEvent(ctx *Context, ev Event)
}

// Context gives a component access to the engine during HandleEvent.
// Exactly one of eng and par is set: the sequential engine, or the
// parallel-engine partition hosting the handling component.
type Context struct {
	eng   *Engine
	par   *partition
	links *[]link // the owning engine's link table
	id    ComponentID
	now   Time
}

// Now returns the current simulated time.
//
//lint:hotpath
func (c *Context) Now() Time { return c.now }

// Self returns the handling component's ID.
//
//lint:hotpath
func (c *Context) Self() ComponentID { return c.id }

// ScheduleSelf enqueues an event for the handling component after delay.
//
//lint:hotpath
func (c *Context) ScheduleSelf(delay Time, payload Payload) {
	if delay < 0 {
		panic("des: negative delay")
	}
	ev := Event{Time: c.now + delay, Dst: c.id, Link: NoLink, Payload: payload}
	if c.par != nil {
		c.par.schedule(ev)
		return
	}
	c.eng.schedule(ev)
}

// Send delivers payload over link l, which must be one of the handling
// component's outgoing links. Delivery occurs after the link's
// configured latency plus extra. It panics on a link the component does
// not own: wiring errors are construction bugs, not runtime conditions.
//
//lint:hotpath
func (c *Context) Send(l LinkID, extra Time, payload Payload) {
	lk := c.own(l)
	if extra < 0 {
		panic("des: negative extra latency")
	}
	ev := Event{Time: c.now + lk.latency + extra, Dst: lk.dst, Link: l, Payload: payload}
	if c.par != nil {
		c.par.schedule(ev)
		return
	}
	c.eng.schedule(ev)
}

// LinkLatency reports the configured latency of one of the handling
// component's outgoing links.
//
//lint:hotpath
func (c *Context) LinkLatency(l LinkID) Time { return c.own(l).latency }

// own returns link l, panicking unless the handling component is its
// source.
//
//lint:hotpath
func (c *Context) own(l LinkID) *link {
	links := *c.links
	if l < 0 || int(l) >= len(links) || links[l].src != c.id {
		panic(fmt.Sprintf("des: component %d does not own link %d", c.id, l))
	}
	return &links[l]
}

// link is one wired unidirectional link, stored at its LinkID.
type link struct {
	src, dst ComponentID
	latency  Time
}

// Engine is the sequential discrete-event simulator. Construct with
// NewEngine, register components and links, seed initial events with
// ScheduleAt, then call Run. A finished engine can be rewound with
// Reset and rerun, reusing its components, links, and queue capacity.
type Engine struct {
	components []Component
	links      []link // indexed by LinkID
	queue      eventQueue
	ctx        Context // reused across dispatches; one escape, not one per event
	now        Time
	seq        uint64
	processed  uint64
	running    bool
	tracer     Tracer // nil unless SetTracer was called
	stream     int    // stream tag passed to every tracer hook
	peakQueue  int
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	e := &Engine{}
	e.ctx.eng = e
	e.ctx.links = &e.links
	return e
}

// Register adds a component and returns its ID.
func (e *Engine) Register(c Component) ComponentID {
	if e.running {
		panic("des: Register during Run")
	}
	e.components = append(e.components, c)
	return ComponentID(len(e.components) - 1)
}

// Connect wires a unidirectional link from src to dst with the given
// latency and returns its ID: src sends on it with Context.Send, and
// events delivered over it arrive at dst tagged with it.
func (e *Engine) Connect(src, dst ComponentID, latency Time) LinkID {
	if latency < 0 {
		panic("des: negative link latency")
	}
	e.links = append(e.links, link{src: src, dst: dst, latency: latency})
	return LinkID(len(e.links) - 1)
}

// ConnectBidirectional wires a <-> b with equal latency and returns the
// a->b and b->a links.
func (e *Engine) ConnectBidirectional(a, b ComponentID, latency Time) (ab, ba LinkID) {
	return e.Connect(a, b, latency), e.Connect(b, a, latency)
}

// ScheduleAt enqueues an initial event for dst at absolute time t.
//
//lint:hotpath
func (e *Engine) ScheduleAt(t Time, dst ComponentID, payload Payload) {
	e.schedule(Event{Time: t, Dst: dst, Link: NoLink, Payload: payload})
}

//lint:hotpath
func (e *Engine) schedule(ev Event) {
	if ev.Time < e.now {
		panic("des: scheduling into the past")
	}
	ev.seq = e.seq
	e.seq++
	e.queue.push(ev)
	if e.queue.len() > e.peakQueue {
		e.peakQueue = e.queue.len()
	}
	if e.tracer != nil {
		e.tracer.EventQueued(e.stream, 0, int(ev.Dst), int64(e.now), int64(ev.Time))
	}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events delivered since construction
// or the last Reset.
func (e *Engine) Processed() uint64 { return e.processed }

// PeakQueueDepth returns the deepest the event queue ever grew — the
// engine tracks it unconditionally (one comparison per schedule) so
// run metrics are available even without a tracer.
func (e *Engine) PeakQueueDepth() int { return e.peakQueue }

// SetTracer attaches a lifecycle tracer; nil detaches. stream tags
// every hook from this engine, letting runs that share one tracer
// (e.g. Monte Carlo trials) stay distinguishable in the trace. Must
// not be called while Run is in progress.
func (e *Engine) SetTracer(t Tracer, stream int) {
	if e.running {
		panic("des: SetTracer during Run")
	}
	e.tracer = t
	e.stream = stream
}

// Reset rewinds the engine to time zero for another run: pending events
// are discarded and the clock, sequence counter, and metrics counters
// are cleared, while components, links, the tracer, and the queue's
// backing capacity are all kept. This is what lets replication loops
// reuse one wired engine per trial instead of reconstructing it.
func (e *Engine) Reset() {
	if e.running {
		panic("des: Reset during Run")
	}
	e.queue.reset()
	e.now = 0
	e.seq = 0
	e.processed = 0
	e.peakQueue = 0
}

// Run processes events in timestamp order until the queue is empty or
// the horizon is passed (horizon <= 0 means no horizon). It returns the
// final simulated time.
//
//lint:hotpath
func (e *Engine) Run(horizon Time) Time {
	e.running = true
	defer func() { e.running = false }()
	for e.queue.len() > 0 {
		if horizon > 0 && e.queue.peek().Time > horizon {
			// Leave the event queued; the clock stops at the horizon.
			e.now = horizon
			return e.now
		}
		ev := e.queue.pop()
		if ev.Time < e.now {
			panic("des: event queue went backwards")
		}
		e.now = ev.Time
		e.dispatch(ev)
	}
	return e.now
}

//lint:hotpath
func (e *Engine) dispatch(ev Event) {
	dst := int(ev.Dst)
	if dst < 0 || dst >= len(e.components) {
		panic(fmt.Sprintf("des: event for unknown component %d", ev.Dst))
	}
	e.ctx.id = ev.Dst
	e.ctx.now = e.now
	if e.tracer != nil {
		e.tracer.EventDispatch(e.stream, 0, dst, int64(e.now))
		e.components[dst].HandleEvent(&e.ctx, ev)
		e.tracer.EventReturn(e.stream, 0, int64(e.now))
	} else {
		e.components[dst].HandleEvent(&e.ctx, ev)
	}
	e.processed++
}

// Step processes exactly one event if available, returning false when
// the queue is empty. It is exposed for tests and debugging tooling.
//
//lint:hotpath
func (e *Engine) Step() bool {
	if e.queue.len() == 0 {
		return false
	}
	ev := e.queue.pop()
	e.now = ev.Time
	e.dispatch(ev)
	return true
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return e.queue.len() }
