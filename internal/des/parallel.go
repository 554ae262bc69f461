package des

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// maxWindow is the exclusive window edge meaning "unbounded": a
// partition with no inbound cross-partition constraint may drain every
// event it holds.
const maxWindow = Time(math.MaxInt64)

// shutdownWindow is the sentinel window edge telling a persistent
// worker to exit (real edges are always positive).
const shutdownWindow = Time(-1)

// ParallelEngine is a conservative parallel discrete-event simulator.
//
// Components are assigned to partitions; each partition is executed by
// a persistent worker goroutine with a private event queue. Execution
// proceeds in windows: every active partition processes all events with
// timestamp strictly below its window edge, then the partitions
// synchronize at a lightweight epoch barrier (an atomic arrival counter
// plus buffered channel wakeups — no goroutine is ever spawned per
// window) and exchange cross-partition events through per-destination
// outboxes whose buffers are reused across windows.
//
// The per-partition window edge is statically widened past the global
// lookahead: Connect maintains the minimum cross-link latency for every
// (source, destination) partition pair, whose min-plus transitive
// closure lower-bounds how fast influence can travel between any two
// partitions over any chain of links. A partition may safely run to the
// earliest time any event-holding partition — including itself, via the
// shortest echo cycle — could reach it: min over q of q.next +
// dist[q][p]. Cross events are only delivered at barriers, never
// mid-window, so nothing can land inside the widened window. The engine
// lookahead remains the floor for every cross-partition link latency
// (checked at Connect), which guarantees the globally-earliest
// partition always clears at least one event per window.
//
// Results are bit-identical to the sequential Engine for models whose
// behaviour depends only on per-component event order (the BE-SST
// components in this repository), and are themselves deterministic
// across runs regardless of goroutine scheduling: cross-partition
// deliveries are merged in (time, source partition, source sequence)
// order at each barrier.
//
// Call Close when done with an engine that has run multi-partition
// windows to stop its workers; a never-started or single-partition
// engine holds no goroutines.
type ParallelEngine struct {
	components []Component
	partOf     []int  // component -> partition
	links      []link // indexed by LinkID
	parts      []*partition
	lookahead  Time
	// pairMin[q*nparts+p] is the minimum latency over links from a
	// component in partition q to one in partition p (-1 when no such
	// link exists). Maintained by Connect and rebuilt by Rebalance.
	pairMin []Time
	// dist is the min-plus transitive closure of pairMin: dist[q*n+p]
	// lower-bounds the simulated time any influence leaving partition q
	// needs to reach partition p over any chain of cross links, however
	// many idle partitions relay it (intra-partition hops add no edge —
	// they may be zero-latency). The diagonal is the shortest nontrivial
	// cycle back to the partition itself, which is what bounds a
	// partition against echoes of its own sends. Recomputed lazily at
	// Run when the wiring or the assignment changed; it is what lets
	// safeBound widen a partition's window past the global lookahead.
	dist      []Time
	distDirty bool
	// loads counts delivered events per component across runs (Reset
	// keeps it): the workload measurement Rebalance feeds on. Workers
	// write disjoint indices — a component is only ever dispatched by
	// the partition that owns it.
	loads     []uint64
	now       Time
	running   bool
	processed uint64
	tracer    Tracer         // nil unless SetTracer was called
	adaptive  AdaptiveTracer // tracer's optional extension, nil if absent
	stream    int            // stream tag passed to every tracer hook

	// Persistent-worker state. Workers start lazily at the first window
	// with two or more active partitions and live until Close: the
	// coordinator publishes each active partition's window edge over its
	// buffered wake channel, workers decrement pending as they finish,
	// and the last one signals the barrier channel.
	started bool
	closed  bool
	pending atomic.Int32
	barrier chan struct{}
	wg      sync.WaitGroup

	active []int  // scratch: partitions woken this window
	ends   []Time // scratch: per-partition window edge, indexed by partition
}

type partition struct {
	eng   *ParallelEngine
	index int
	queue eventQueue
	ctx   Context // reused across this partition's dispatches
	seq   uint64
	// out buffers cross-partition sends per destination partition. Only
	// the goroutine running this partition's window appends, so the
	// slices need no locks; the coordinator drains them at the barrier
	// and the backing arrays are reused across windows.
	out [][]crossEvent
	// inbox accumulates the cross events the coordinator routed here at
	// the barrier; the owning worker sorts and enqueues them at the
	// start of its next window, spreading merge work across workers.
	inbox     []crossEvent
	count     uint64 // events processed since the last flush
	crossSent int    // cross events sent this window (adaptive tracer)
	// next caches the earliest pending time — queue head or routed
	// inbox minimum, -1 when neither — so the coordinator's min-scan
	// between windows never touches the heaps. Maintained by the owning
	// worker at window end and by the coordinator during ScheduleAt and
	// the barrier exchange — never concurrently.
	next Time
	// now is the timestamp of the event currently being handled, kept
	// so tracer hooks can stamp scheduling times without threading the
	// context through partition.schedule.
	now Time
	// last is the timestamp of this partition's most recent dispatch,
	// which is where the engine clock lands when the simulation drains.
	last Time
	// wake carries the partition's next window edge (or shutdownWindow)
	// from the coordinator to the parked worker. Buffered so the
	// coordinator never blocks: a worker always consumes its previous
	// edge before the barrier that precedes the next send.
	wake chan Time
	// stat accumulates cumulative per-partition counters for run
	// metrics, under the same ownership discipline as next.
	stat PartitionStat
}

type crossEvent struct {
	ev      Event
	srcPart int
	srcSeq  uint64
}

// NewParallelEngine returns an engine with nparts partitions and the
// given lookahead window. Lookahead must be positive: a zero-lookahead
// conservative simulation cannot make parallel progress.
func NewParallelEngine(nparts int, lookahead Time) *ParallelEngine {
	if nparts <= 0 {
		panic("des: non-positive partition count")
	}
	if lookahead <= 0 {
		panic("des: non-positive lookahead")
	}
	e := &ParallelEngine{
		lookahead: lookahead,
		pairMin:   make([]Time, nparts*nparts),
		dist:      make([]Time, nparts*nparts),
		barrier:   make(chan struct{}, 1),
		active:    make([]int, 0, nparts),
		ends:      make([]Time, nparts),
	}
	for i := range e.pairMin {
		e.pairMin[i] = -1
		e.dist[i] = -1
	}
	for i := 0; i < nparts; i++ {
		p := &partition{
			eng:   e,
			index: i,
			next:  -1,
			out:   make([][]crossEvent, nparts),
			wake:  make(chan Time, 1),
		}
		p.ctx.par = p
		p.ctx.links = &e.links
		e.parts = append(e.parts, p)
	}
	return e
}

// Partitions returns the number of partitions.
func (e *ParallelEngine) Partitions() int { return len(e.parts) }

// RegisterIn adds a component to the given partition and returns its ID.
func (e *ParallelEngine) RegisterIn(part int, c Component) ComponentID {
	if e.running {
		panic("des: RegisterIn during Run")
	}
	if part < 0 || part >= len(e.parts) {
		panic(fmt.Sprintf("des: partition %d out of range", part))
	}
	e.components = append(e.components, c)
	e.partOf = append(e.partOf, part)
	e.loads = append(e.loads, 0)
	return ComponentID(len(e.components) - 1)
}

// Connect wires a unidirectional link from src to dst and returns its
// ID, exactly like Engine.Connect. Cross-partition links must have
// latency >= the engine lookahead; violating that breaks conservative
// safety, so it panics at wiring time rather than corrupting a run.
func (e *ParallelEngine) Connect(src, dst ComponentID, latency Time) LinkID {
	if latency < 0 {
		panic("des: negative link latency")
	}
	sp, dp := e.partOf[src], e.partOf[dst]
	if sp != dp && latency < e.lookahead {
		panic(fmt.Sprintf("des: cross-partition link %d->%d latency %v below lookahead %v",
			src, dst, latency, e.lookahead))
	}
	e.links = append(e.links, link{src: src, dst: dst, latency: latency})
	if sp != dp {
		if i := sp*len(e.parts) + dp; e.pairMin[i] < 0 || latency < e.pairMin[i] {
			e.pairMin[i] = latency
			e.distDirty = true
		}
	}
	return LinkID(len(e.links) - 1)
}

// ConnectBidirectional wires a <-> b with equal latency and returns the
// a->b and b->a links.
func (e *ParallelEngine) ConnectBidirectional(a, b ComponentID, latency Time) (ab, ba LinkID) {
	return e.Connect(a, b, latency), e.Connect(b, a, latency)
}

// ScheduleAt enqueues an initial event for dst at absolute time t.
//
//lint:hotpath
func (e *ParallelEngine) ScheduleAt(t Time, dst ComponentID, payload Payload) {
	if t < e.now {
		panic("des: scheduling into the past")
	}
	p := e.parts[e.partOf[dst]]
	ev := Event{Time: t, Dst: dst, Link: NoLink, Payload: payload, seq: p.seq}
	p.seq++
	p.queue.push(ev)
	if p.queue.len() > p.stat.PeakQueueDepth {
		p.stat.PeakQueueDepth = p.queue.len()
	}
	if p.next < 0 || t < p.next {
		p.next = t
	}
	if e.tracer != nil {
		e.tracer.EventQueued(e.stream, p.index, int(dst), int64(e.now), int64(t))
	}
}

// Now returns the current simulated time (the completed window edge, or
// the final dispatch time once the simulation drains).
func (e *ParallelEngine) Now() Time { return e.now }

// Processed returns the number of events delivered since construction
// or the last Reset.
func (e *ParallelEngine) Processed() uint64 { return e.processed }

// PartitionStats snapshots every partition's cumulative counters. It
// must not be called while Run is in progress.
func (e *ParallelEngine) PartitionStats() []PartitionStat {
	if e.running {
		panic("des: PartitionStats during Run")
	}
	out := make([]PartitionStat, len(e.parts))
	for i, p := range e.parts {
		out[i] = p.stat
	}
	return out
}

// PeakQueueDepth returns the deepest any partition's private queue
// ever grew. It must not be called while Run is in progress.
func (e *ParallelEngine) PeakQueueDepth() int {
	if e.running {
		panic("des: PeakQueueDepth during Run")
	}
	peak := 0
	for _, p := range e.parts {
		if p.stat.PeakQueueDepth > peak {
			peak = p.stat.PeakQueueDepth
		}
	}
	return peak
}

// SetTracer attaches a lifecycle tracer; nil detaches. Hooks fire
// concurrently from the partition workers, so the tracer must be safe
// for concurrent use. A tracer that also implements AdaptiveTracer
// additionally receives per-window synchronization decisions. stream
// tags every hook from this engine. Must not be called while Run is in
// progress.
func (e *ParallelEngine) SetTracer(t Tracer, stream int) {
	if e.running {
		panic("des: SetTracer during Run")
	}
	e.tracer = t
	e.adaptive, _ = t.(AdaptiveTracer)
	e.stream = stream
}

// Reset rewinds the engine to time zero for another run, mirroring
// Engine.Reset: pending events, outboxes, inboxes, and counters are
// cleared while components, links, the tracer, the persistent workers,
// and every buffer's capacity are kept (events are pointer-free, so
// stale slots pin nothing). Component load counters survive (see
// ComponentLoads).
func (e *ParallelEngine) Reset() {
	if e.running {
		panic("des: Reset during Run")
	}
	e.now = 0
	e.processed = 0
	for _, p := range e.parts {
		p.queue.reset()
		p.seq = 0
		for d := range p.out {
			p.out[d] = p.out[d][:0]
		}
		p.inbox = p.inbox[:0]
		p.count = 0
		p.crossSent = 0
		p.next = -1
		p.now = 0
		p.last = 0
		p.stat = PartitionStat{}
	}
}

// Close stops the persistent partition workers. It is idempotent and
// safe on an engine whose workers never started; a closed engine
// rejects further Run calls but stays readable (Processed, stats).
// Must not be called while Run is in progress.
func (e *ParallelEngine) Close() {
	if e.running {
		panic("des: Close during Run")
	}
	if e.closed {
		return
	}
	e.closed = true
	if !e.started {
		return
	}
	for _, p := range e.parts {
		p.wake <- shutdownWindow
	}
	e.wg.Wait()
}

// schedule enqueues an event sent or self-scheduled by a component
// this partition hosts: locally when the destination is hosted here
// too, otherwise into the outbox for the next barrier exchange.
//
//lint:hotpath
func (p *partition) schedule(ev Event) {
	dstPart := p.eng.partOf[ev.Dst]
	if dstPart == p.index {
		ev.seq = p.seq
		p.seq++
		p.queue.push(ev)
		if p.queue.len() > p.stat.PeakQueueDepth {
			p.stat.PeakQueueDepth = p.queue.len()
		}
		if t := p.eng.tracer; t != nil {
			t.EventQueued(p.eng.stream, p.index, int(ev.Dst), int64(p.now), int64(ev.Time))
		}
		return
	}
	p.out[dstPart] = append(p.out[dstPart], crossEvent{
		ev:      ev,
		srcPart: p.index,
		srcSeq:  p.seq,
	})
	p.seq++
	p.crossSent++
	if t := p.eng.tracer; t != nil {
		t.EventQueued(p.eng.stream, p.index, int(ev.Dst), int64(p.now), int64(ev.Time))
	}
}

// sort.Interface over the inbox, on the partition itself so sorting
// allocates nothing (a *partition converts to sort.Interface without
// boxing). The key — (time, source partition, source sequence) — is
// identical for every worker schedule, which is what makes the merge,
// and therefore the whole run, deterministic.

//lint:hotpath
func (p *partition) Len() int { return len(p.inbox) }

//lint:hotpath
func (p *partition) Less(i, j int) bool {
	a, b := &p.inbox[i], &p.inbox[j]
	if a.ev.Time != b.ev.Time {
		return a.ev.Time < b.ev.Time
	}
	if a.srcPart != b.srcPart {
		return a.srcPart < b.srcPart
	}
	return a.srcSeq < b.srcSeq
}

//lint:hotpath
func (p *partition) Swap(i, j int) { p.inbox[i], p.inbox[j] = p.inbox[j], p.inbox[i] }

// mergeInbox enqueues the cross events the coordinator routed here,
// in deterministic merge order. Runs on the goroutine that owns the
// partition's window, so the sort and heap work parallelizes instead
// of serializing on the coordinator.
//
//lint:hotpath
func (p *partition) mergeInbox() {
	if len(p.inbox) == 0 {
		return
	}
	sort.Sort(p)
	for i := range p.inbox {
		ev := p.inbox[i].ev
		ev.seq = p.seq
		p.seq++
		p.queue.push(ev)
	}
	p.inbox = p.inbox[:0]
	if p.queue.len() > p.stat.PeakQueueDepth {
		p.stat.PeakQueueDepth = p.queue.len()
	}
}

// runWindow processes all events with Time < windowEnd in this
// partition, then refreshes the cached next-event time for the
// coordinator's min-scan.
//
//lint:hotpath
func (p *partition) runWindow(windowEnd Time) {
	tr := p.eng.tracer
	loads := p.eng.loads
	dispatched := false
	for p.queue.len() > 0 && p.queue.peek().Time < windowEnd {
		ev := p.queue.pop()
		p.ctx.id = ev.Dst
		p.ctx.now = ev.Time
		p.now = ev.Time
		if tr != nil {
			tr.EventDispatch(p.eng.stream, p.index, int(ev.Dst), int64(ev.Time))
			p.eng.components[int(ev.Dst)].HandleEvent(&p.ctx, ev)
			tr.EventReturn(p.eng.stream, p.index, int64(ev.Time))
		} else {
			p.eng.components[int(ev.Dst)].HandleEvent(&p.ctx, ev)
		}
		loads[int(ev.Dst)]++
		p.count++
		dispatched = true
	}
	if dispatched {
		p.last = p.now
	}
	p.stat.Windows++
	if p.queue.len() > 0 {
		p.next = p.queue.peek().Time
	} else {
		p.next = -1
	}
}

// work is the persistent worker loop: park on the wake channel, merge
// the inbox, run the window named by the received edge, and signal the
// epoch barrier when the last active worker finishes. One goroutine
// per partition, started lazily by the first multi-partition window and
// stopped by Close.
//
//lint:hotpath
func (p *partition) work() {
	e := p.eng
	defer e.wg.Done()
	for {
		end := <-p.wake
		if end == shutdownWindow {
			return
		}
		if t := e.tracer; t != nil {
			t.BarrierResume(e.stream, p.index, int64(end))
		}
		p.mergeInbox()
		p.runWindow(end)
		if t := e.tracer; t != nil {
			t.BarrierArrive(e.stream, p.index, int64(end))
		}
		if e.pending.Add(-1) == 0 {
			e.barrier <- struct{}{}
		}
	}
}

// startWorkers launches the persistent workers, once per engine.
func (e *ParallelEngine) startWorkers() {
	if e.started {
		return
	}
	e.started = true
	for _, p := range e.parts {
		e.wg.Add(1)
		go p.work()
	}
}

// flushCounts folds every partition's in-window event tally into the
// engine total. It runs on every Run exit path (and at each barrier) so
// Processed() is never stale, whichever branch returned.
//
//lint:hotpath
func (e *ParallelEngine) flushCounts() {
	for _, p := range e.parts {
		e.processed += p.count
		p.stat.Processed += p.count
		p.count = 0
	}
}

// computeDist rebuilds the min-plus transitive closure of pairMin
// (Floyd–Warshall over the partition graph, -1 as +infinity). The
// diagonal starts unreachable — a partition has no zero-length path to
// itself here — so relaxation leaves dist[p][p] as the shortest
// nontrivial cycle through p, exactly the earliest a partition's own
// sends can echo back into it.
//
//lint:hotpath
func (e *ParallelEngine) computeDist() {
	n := len(e.parts)
	copy(e.dist, e.pairMin)
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			ik := e.dist[i*n+k]
			if ik < 0 {
				continue
			}
			for j := 0; j < n; j++ {
				kj := e.dist[k*n+j]
				if kj < 0 {
					continue
				}
				sum := ik + kj
				if sum < ik { // overflow
					sum = maxWindow
				}
				if d := e.dist[i*n+j]; d < 0 || sum < d {
					e.dist[i*n+j] = sum
				}
			}
		}
	}
	e.distDirty = false
}

// safeBound returns partition pi's widened exclusive window edge:
// max(base, min over event-holding partitions q of q.next+dist[q][pi]).
// Every event some q dispatches from here on has Time >= q.next, and any
// influence it exerts on pi — directly, relayed through other partitions
// over later barriers, or cycling back when q == pi — travels links
// summing to at least dist[q][pi]. Cross events are only delivered at
// barriers, so nothing can land inside that bound, and running pi's
// local events up to it is safe. A partition with no inbound constraint
// is unbounded and may drain.
//
//lint:hotpath
func (e *ParallelEngine) safeBound(pi int, base Time) Time {
	n := len(e.parts)
	bound := Time(-1)
	for qi, q := range e.parts {
		if q.next < 0 {
			continue
		}
		lat := e.dist[qi*n+pi]
		if lat < 0 {
			continue
		}
		b := q.next + lat
		if b < q.next { // overflow
			b = maxWindow
		}
		if bound < 0 || b < bound {
			bound = b
		}
	}
	if bound < 0 {
		return maxWindow
	}
	if bound < base {
		return base
	}
	return bound
}

// exchange routes every active partition's outboxes into the
// destination inboxes in one pass (buffers reused, nothing copied
// twice), refreshes the destinations' cached next-event times, and
// reports the closed window to the adaptive tracer.
//
//lint:hotpath
func (e *ParallelEngine) exchange(minT Time) {
	for _, qi := range e.active {
		q := e.parts[qi]
		if q.crossSent == 0 {
			continue
		}
		for d := range q.out {
			box := q.out[d]
			if len(box) == 0 {
				continue
			}
			dst := e.parts[d]
			dst.inbox = append(dst.inbox, box...)
			for k := range box {
				if t := box[k].ev.Time; dst.next < 0 || t < dst.next {
					dst.next = t
				}
			}
			q.out[d] = box[:0]
		}
	}
	if e.adaptive != nil {
		for _, qi := range e.active {
			q := e.parts[qi]
			end := e.ends[qi]
			width := int64(-1) // unbounded: the partition drained freely
			if end != maxWindow {
				width = int64(end - minT)
			}
			e.adaptive.WindowClosed(e.stream, qi, int64(end), width, int(q.count), q.crossSent)
		}
	}
	for _, qi := range e.active {
		e.parts[qi].crossSent = 0
	}
}

// Run executes the simulation until no events remain anywhere or the
// horizon is reached (horizon <= 0 means none). It returns the final
// simulated time.
//
// Each iteration picks the active partitions (those holding an
// admissible event or an unmerged inbox), computes their widened window
// edges, and releases them through the epoch barrier. A window with a
// single active partition runs inline on the coordinator — no wakeup,
// no barrier — so skewed or serialized phases cost no synchronization.
//
//lint:hotpath
func (e *ParallelEngine) Run(horizon Time) Time {
	if e.closed {
		panic("des: Run on closed engine")
	}
	e.running = true
	defer func() { e.running = false }()
	defer e.flushCounts()
	if e.distDirty {
		e.computeDist()
	}

	for {
		// Global minimum next-event time, read from the cached
		// per-partition heads instead of re-inspecting every heap.
		minT := Time(-1)
		for _, p := range e.parts {
			if p.next >= 0 && (minT < 0 || p.next < minT) {
				minT = p.next
			}
		}
		if minT < 0 {
			// Drained: land the clock on the latest dispatch, like the
			// sequential engine (widened windows may run partitions past
			// the last synchronized edge, so the edge alone is stale).
			for _, p := range e.parts {
				if p.last > e.now {
					e.now = p.last
				}
			}
			return e.now
		}
		if horizon > 0 && minT > horizon {
			e.now = horizon
			return e.now
		}
		base := minT + e.lookahead
		if base <= minT { // overflow
			base = maxWindow
		}
		// Clamp windows at the horizon so no event beyond it is
		// processed: the sequential engine delivers events with
		// Time <= horizon and leaves the rest queued, and Time is
		// integral, so horizon+1 is the matching exclusive edge.
		if horizon > 0 && base > horizon+1 {
			base = horizon + 1
		}

		e.active = e.active[:0]
		for i, p := range e.parts {
			if p.next < 0 {
				continue
			}
			end := e.safeBound(i, base)
			if horizon > 0 && end > horizon+1 {
				end = horizon + 1
			}
			if len(p.inbox) == 0 && p.next >= end {
				continue // nothing admissible this window: skip the wakeup
			}
			e.ends[i] = end
			e.active = append(e.active, i)
		}

		if len(e.active) == 1 {
			p := e.parts[e.active[0]]
			end := e.ends[p.index]
			if t := e.tracer; t != nil {
				t.BarrierResume(e.stream, p.index, int64(end))
			}
			p.mergeInbox()
			p.runWindow(end)
			if t := e.tracer; t != nil {
				t.BarrierArrive(e.stream, p.index, int64(end))
			}
		} else {
			e.startWorkers()
			e.pending.Store(int32(len(e.active)))
			for _, i := range e.active {
				e.parts[i].wake <- e.ends[i]
			}
			<-e.barrier
		}

		e.exchange(minT)
		e.flushCounts()
		// e.now is deliberately NOT advanced to the window edge here:
		// base overshoots the final dispatch by up to one lookahead, and
		// the sequential engine's clock lands on the last dispatched
		// event. Only the exits above commit the clock.
	}
}
