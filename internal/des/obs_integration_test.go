package des

import (
	"bytes"
	"encoding/json"
	"testing"

	"besst/internal/obs"
)

// buildRing wires n echo components into a ring with the given latency.
func buildRing(e *Engine, n int, latency Time) []*echo {
	comps := make([]*echo, n)
	ids := make([]ComponentID, n)
	for i := range comps {
		comps[i] = &echo{}
		ids[i] = e.Register(comps[i])
	}
	for i, c := range comps {
		c.next = e.Connect(ids[i], ids[(i+1)%n], latency)
	}
	return comps
}

// TestEngineObservabilityFixture is the golden end-to-end fixture for
// the observability layer: a real DES run with both a TraceBuffer and a
// Collector teed onto the engine must yield a parseable Chrome trace
// carrying the dispatch, return and queue hooks, and a versioned
// metrics document with non-zero event counts.
func TestEngineObservabilityFixture(t *testing.T) {
	buf := obs.NewTraceBuffer(obs.DefaultTraceCap)
	col := obs.NewCollector()

	e := NewEngine()
	e.SetTracer(obs.Tee(buf, col), 7)
	buildRing(e, 8, 100)
	// Two tokens circulate so the queue holds more than one event.
	e.ScheduleAt(0, 0, Payload{A: 40})
	e.ScheduleAt(50, 4, Payload{A: 40})
	e.Run(0)
	col.EngineTotals(e.Processed(), e.PeakQueueDepth())

	recs := buf.Records()
	if len(recs) == 0 {
		t.Fatal("trace buffer recorded no events")
	}
	kinds := map[obs.Kind]int{}
	for _, r := range recs {
		if r.Stream != 7 {
			t.Fatalf("record carries stream %d, want 7", r.Stream)
		}
		kinds[r.Kind]++
		// EventReturn closes every dispatch with its return time.
		if r.Kind == obs.KindDispatch && (r.WallDur < 0 || r.Aux != r.Sim) {
			t.Fatalf("dispatch record left open or mis-closed: %+v", r)
		}
	}
	if uint64(kinds[obs.KindDispatch]) != e.Processed() {
		t.Fatalf("%d dispatch records, want one per processed event (%d)", kinds[obs.KindDispatch], e.Processed())
	}
	// Every delivered event was queued once: the two seeds plus each send.
	if uint64(kinds[obs.KindQueued]) != e.Processed() {
		t.Fatalf("%d queued records, want %d", kinds[obs.KindQueued], e.Processed())
	}

	// The Chrome trace must be valid JSON with complete ("X") spans
	// for dispatches plus instant ("i") queue marks.
	var cbuf bytes.Buffer
	if err := buf.WriteChromeTrace(&cbuf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var trace struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
			PID   int    `json:"pid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(cbuf.Bytes(), &trace); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if trace.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q, want ns", trace.DisplayTimeUnit)
	}
	phases := map[string]int{}
	for _, ev := range trace.TraceEvents {
		phases[ev.Phase]++
		if ev.PID != 7 {
			t.Fatalf("event pid %d, want stream 7", ev.PID)
		}
	}
	if phases["X"] == 0 || phases["i"] == 0 {
		t.Fatalf("trace phases %v: want both complete (X) and instant (i) events", phases)
	}

	// The metrics document must carry the schema version, the engine
	// totals, and an event count matching the engine's.
	var mbuf bytes.Buffer
	if err := col.WriteMetrics(&mbuf, "fixture"); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	var m struct {
		SchemaVersion   int    `json:"schema_version"`
		Tool            string `json:"tool"`
		EventsProcessed uint64 `json:"events_processed"`
		PeakQueueDepth  int    `json:"peak_queue_depth"`
		Partitions      []struct {
			Part   int    `json:"part"`
			Events uint64 `json:"events"`
		} `json:"partitions"`
	}
	if err := json.Unmarshal(mbuf.Bytes(), &m); err != nil {
		t.Fatalf("metrics document is not valid JSON: %v", err)
	}
	if m.SchemaVersion != obs.MetricsSchemaVersion {
		t.Fatalf("schema_version = %d, want %d", m.SchemaVersion, obs.MetricsSchemaVersion)
	}
	if m.Tool != "fixture" {
		t.Fatalf("tool = %q, want fixture", m.Tool)
	}
	if m.EventsProcessed != e.Processed() || m.EventsProcessed == 0 {
		t.Fatalf("events_processed = %d, want %d (non-zero)", m.EventsProcessed, e.Processed())
	}
	if m.PeakQueueDepth < 2 {
		t.Fatalf("peak_queue_depth = %d, want >= 2", m.PeakQueueDepth)
	}
	if len(m.Partitions) != 1 || m.Partitions[0].Events != m.EventsProcessed {
		t.Fatalf("partition rows %+v, want one row counting all %d events", m.Partitions, m.EventsProcessed)
	}
}

// TestTracerDoesNotPerturbRun asserts that attaching a recording tracer
// leaves the simulated trajectory untouched: same delivery times, same
// processed count, same end time.
func TestTracerDoesNotPerturbRun(t *testing.T) {
	run := func(tr Tracer) ([]*echo, Time, uint64) {
		e := NewEngine()
		if tr != nil {
			e.SetTracer(tr, 0)
		}
		comps := buildRing(e, 8, 100)
		e.ScheduleAt(0, 0, Payload{A: 40})
		e.ScheduleAt(50, 4, Payload{A: 40})
		end := e.Run(0)
		return comps, end, e.Processed()
	}

	plain, plainEnd, plainN := run(nil)
	traced, tracedEnd, tracedN := run(obs.Tee(obs.NewTraceBuffer(1024), obs.NewCollector()))

	if plainEnd != tracedEnd || plainN != tracedN {
		t.Fatalf("traced run diverged: end %v vs %v, processed %d vs %d",
			tracedEnd, plainEnd, tracedN, plainN)
	}
	for i := range plain {
		a, b := plain[i].times, traced[i].times
		if len(a) != len(b) {
			t.Fatalf("component %d delivery count %d vs %d", i, len(b), len(a))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("component %d delivery %d at %v vs %v", i, j, b[j], a[j])
			}
		}
	}
}

// buildParallelRing wires n echo components into a ring with the given
// latency on engine e, distributing them round-robin over its
// partitions.
func buildParallelRing(e *ParallelEngine, n int, latency Time) []*echo {
	comps := make([]*echo, n)
	ids := make([]ComponentID, n)
	for i := 0; i < n; i++ {
		comps[i] = &echo{}
		ids[i] = e.RegisterIn(i%e.Partitions(), comps[i])
	}
	for i := 0; i < n; i++ {
		comps[i].next = e.Connect(ids[i], ids[(i+1)%n], latency)
	}
	return comps
}

// TestParallelEngineObservabilityFixture is the golden end-to-end
// fixture for the observability layer: a real parallel DES run with
// both a TraceBuffer and a Collector teed onto the engine must yield a
// parseable Chrome trace and a versioned metrics document with
// non-zero event counts and per-partition barrier-stall rows.
func TestParallelEngineObservabilityFixture(t *testing.T) {
	const nparts = 4
	buf := obs.NewTraceBuffer(obs.DefaultTraceCap)
	col := obs.NewCollector()

	e := NewParallelEngine(nparts, 100)
	e.SetTracer(obs.Tee(buf, col), 7)
	buildParallelRing(e, 8, 100)
	e.ScheduleAt(0, 0, Payload{A: 40})
	e.Run(0)
	col.EngineTotals(e.Processed(), e.PeakQueueDepth())

	if buf.Len() == 0 {
		t.Fatal("trace buffer recorded no events")
	}
	for _, r := range buf.Records() {
		if r.Stream != 7 {
			t.Fatalf("record carries stream %d, want 7", r.Stream)
		}
	}

	// The Chrome trace must be valid JSON with complete ("X") spans
	// for dispatches and barrier waits plus instant ("i") queue marks.
	var cbuf bytes.Buffer
	if err := buf.WriteChromeTrace(&cbuf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var trace struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
			PID   int    `json:"pid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(cbuf.Bytes(), &trace); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if trace.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q, want ns", trace.DisplayTimeUnit)
	}
	phases := map[string]int{}
	for _, ev := range trace.TraceEvents {
		phases[ev.Phase]++
		if ev.PID != 7 {
			t.Fatalf("event pid %d, want stream 7", ev.PID)
		}
	}
	if phases["X"] == 0 || phases["i"] == 0 {
		t.Fatalf("trace phases %v: want both complete (X) and instant (i) events", phases)
	}

	// The metrics document must carry the schema version, the engine
	// totals, and one row per partition with barrier-stall fields.
	var mbuf bytes.Buffer
	if err := col.WriteMetrics(&mbuf, "fixture"); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	var m struct {
		SchemaVersion   int    `json:"schema_version"`
		Tool            string `json:"tool"`
		EventsProcessed uint64 `json:"events_processed"`
		PeakQueueDepth  int    `json:"peak_queue_depth"`
		EventsExchanged uint64 `json:"events_exchanged"`
		Partitions      []struct {
			Part            int    `json:"part"`
			Events          uint64 `json:"events"`
			BarrierStallNs  *int64 `json:"barrier_stall_ns"`
			Windows         uint64 `json:"windows"`
			CrossEventsSent uint64 `json:"cross_events_sent"`
		} `json:"partitions"`
	}
	if err := json.Unmarshal(mbuf.Bytes(), &m); err != nil {
		t.Fatalf("metrics document is not valid JSON: %v", err)
	}
	if m.SchemaVersion != obs.MetricsSchemaVersion {
		t.Fatalf("schema_version = %d, want %d", m.SchemaVersion, obs.MetricsSchemaVersion)
	}
	if m.Tool != "fixture" {
		t.Fatalf("tool = %q, want fixture", m.Tool)
	}
	if m.EventsProcessed != e.Processed() || m.EventsProcessed == 0 {
		t.Fatalf("events_processed = %d, want %d (non-zero)", m.EventsProcessed, e.Processed())
	}
	if m.PeakQueueDepth <= 0 {
		t.Fatalf("peak_queue_depth = %d, want > 0", m.PeakQueueDepth)
	}
	if len(m.Partitions) != nparts {
		t.Fatalf("%d partition rows, want %d", len(m.Partitions), nparts)
	}
	var counted, crossed uint64
	for _, p := range m.Partitions {
		counted += p.Events
		crossed += p.CrossEventsSent
		if p.BarrierStallNs == nil {
			t.Fatalf("partition %d: barrier_stall_ns field missing", p.Part)
		}
		if p.Windows == 0 {
			t.Fatalf("partition %d: no barrier windows recorded", p.Part)
		}
	}
	if counted != m.EventsProcessed {
		t.Fatalf("partition events sum %d != events_processed %d", counted, m.EventsProcessed)
	}
	// Every ring hop crosses partitions here, so the adaptive exchange
	// counters must be populated and consistent.
	if m.EventsExchanged == 0 || crossed != m.EventsExchanged {
		t.Fatalf("cross-event sum %d vs events_exchanged %d, want equal and non-zero",
			crossed, m.EventsExchanged)
	}
}

// TestTracerDoesNotPerturbParallelRun asserts that attaching a
// recording tracer leaves the simulated trajectory untouched: same
// delivery times, same processed count, same end time.
func TestTracerDoesNotPerturbParallelRun(t *testing.T) {
	run := func(tr Tracer) ([]*echo, Time, uint64) {
		e := NewParallelEngine(4, 100)
		if tr != nil {
			e.SetTracer(tr, 0)
		}
		comps := buildParallelRing(e, 8, 100)
		e.ScheduleAt(0, 0, Payload{A: 40})
		end := e.Run(0)
		return comps, end, e.Processed()
	}

	plain, plainEnd, plainN := run(nil)
	traced, tracedEnd, tracedN := run(obs.Tee(obs.NewTraceBuffer(1024), obs.NewCollector()))

	if plainEnd != tracedEnd || plainN != tracedN {
		t.Fatalf("traced run diverged: end %v vs %v, processed %d vs %d",
			tracedEnd, plainEnd, tracedN, plainN)
	}
	for i := range plain {
		a, b := plain[i].times, traced[i].times
		if len(a) != len(b) {
			t.Fatalf("component %d delivery count %d vs %d", i, len(b), len(a))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("component %d delivery %d at %v vs %v", i, j, b[j], a[j])
			}
		}
	}
}
