package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one campaign share its campaign ID.
type span struct {
	id, parent int
	name       string
	campaign   string
	start, end time.Duration // offsets from the tracer's origin
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span // guarded by mu; spans[i].id == i+1
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// start opens a span and returns its ID (0 on a nil tracer). An empty
// campaign inherits the parent's.
func (t *tracer) start(name string, parent int, campaign string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	if campaign == "" && parent > 0 {
		campaign = t.spans[parent-1].campaign
	}
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, name: name, campaign: campaign, start: now, end: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// setCampaign labels span id (and later children) with a campaign ID
// learned after the span opened.
func (t *tracer) setCampaign(id int, campaign string) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].campaign = campaign
	t.mu.Unlock()
}

// timed runs fn inside a span and returns its duration.
func (t *tracer) timed(name string, parent int, fn func()) time.Duration {
	id := t.start(name, parent, "")
	begin := time.Now()
	fn()
	d := time.Since(begin)
	t.end(id)
	return d
}

// snapshot returns the closed spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.end >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its child spans (overlapping children counted once).
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.parent > 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.id]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
		covered := time.Duration(0)
		cur, curEnd := s.start, s.start
		for _, k := range kids {
			lo, hi := max(k.start, s.start), min(k.end, s.end)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				covered += curEnd - cur
				cur = lo
			}
			if hi > curEnd {
				curEnd = hi
			}
		}
		covered += curEnd - cur
		self[s.id] = s.end - s.start - covered
	}
	return self
}

// spanStats aggregates the spans of one name.
type spanStats struct {
	Count  int     `json:"count"`
	MedMS  float64 `json:"median_ms"`
	SumMS  float64 `json:"total_ms"`
	SelfMS float64 `json:"self_ms"`
}

func aggregate(spans []span) map[string]spanStats {
	self := selfTimes(spans)
	durs := map[string][]float64{}
	out := map[string]spanStats{}
	for _, s := range spans {
		d := ms(s.end - s.start)
		durs[s.name] = append(durs[s.name], d)
		st := out[s.name]
		st.Count++
		st.SumMS += d
		st.SelfMS += ms(self[s.id])
		out[s.name] = st
	}
	for name, ds := range durs {
		st := out[name]
		st.MedMS = median(ds)
		out[name] = st
	}
	return out
}

// writeChromeTrace writes the spans as Chrome trace_event JSON
// (complete events, one row per root span so nesting is preserved).
func writeChromeTrace(path string, spans []span) error {
	root := map[int]int{}
	var rootOf func(id int) int
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.id] = s
	}
	rootOf = func(id int) int {
		if r, ok := root[id]; ok {
			return r
		}
		r := id
		if p := byID[id].parent; p > 0 {
			r = rootOf(p)
		}
		root[id] = r
		return r
	}
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		events = append(events, event{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: rootOf(s.id),
			Args: map[string]any{"id": s.id, "parent": s.parent, "campaign": s.campaign},
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
