package des

import "testing"

// Property tests for static lookahead widening: the per-partition
// window edge must never admit an event the conservative
// global-lookahead schedule could still invalidate. Two angles:
//
//   - TestSafeBoundNeverBeatsLinkArrivals checks the white-box bound
//     arithmetic directly against a brute-force scan of the wiring: the
//     widened edge equals max(base, earliest possible cross arrival)
//     and never drops below the conservative base window.
//   - TestWideningRandomTopologyMatchesSequential runs randomized
//     topologies on the sequential and parallel engines and requires
//     identical per-component delivery traces — if widening ever
//     released an event early, a cross arrival would land in a
//     partition's past and the traces would diverge.

// testRand is a tiny deterministic generator for the property tests
// (math/rand is linted out of the simulator packages, and the tests
// must be reproducible from their seed anyway).
type testRand uint64

func (r *testRand) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r >> 17)
}

func (r *testRand) intn(n int) int { return int(r.next() % uint64(n)) }

// hopRelay forwards a decrementing counter over one of its out links.
// The link is chosen from the arrival time, so when two same-time
// events collide at one component the forwarded multiset is identical
// regardless of their processing order — the property the parallel
// engine guarantees is per-component event order, not global tie order.
type hopRelay struct {
	times []Time
	links []LinkID
}

func (c *hopRelay) HandleEvent(ctx *Context, ev Event) {
	c.times = append(c.times, ctx.Now())
	if n := ev.Payload.A; n > 0 && len(c.links) > 0 {
		ctx.Send(c.links[int(ctx.Now())%len(c.links)], 0, Payload{A: n - 1})
	}
}

// randomTopology is an engine-agnostic model description.
type randomTopology struct {
	nparts int
	partOf []int // component -> partition
	nports []int // component -> out-link count
	dsts   [][]ComponentID
	lats   [][]Time
	inits  []struct {
		t Time
		c ComponentID
		a int64
	}
}

const wideningLookahead = Time(8)

func genTopology(r *testRand, nparts int) *randomTopology {
	n := 6 + r.intn(9)
	tp := &randomTopology{nparts: nparts}
	for i := 0; i < n; i++ {
		tp.partOf = append(tp.partOf, r.intn(nparts))
	}
	for i := 0; i < n; i++ {
		np := 1 + r.intn(3)
		tp.nports = append(tp.nports, np)
		var dsts []ComponentID
		var lats []Time
		for j := 0; j < np; j++ {
			dst := r.intn(n)
			var lat Time
			if tp.partOf[i] == tp.partOf[dst] {
				lat = Time(1 + r.intn(20))
			} else {
				lat = wideningLookahead + Time(r.intn(13))
			}
			dsts = append(dsts, ComponentID(dst))
			lats = append(lats, lat)
		}
		tp.dsts = append(tp.dsts, dsts)
		tp.lats = append(tp.lats, lats)
	}
	for k := 0; k < 1+r.intn(3); k++ {
		tp.inits = append(tp.inits, struct {
			t Time
			c ComponentID
			a int64
		}{Time(r.intn(5)), ComponentID(r.intn(n)), int64(20 + r.intn(40))})
	}
	return tp
}

func (tp *randomTopology) build(reg func(i int, c Component) ComponentID,
	connect func(src, dst ComponentID, lat Time) LinkID,
	schedule func(t Time, dst ComponentID, p Payload)) []*hopRelay {
	comps := make([]*hopRelay, len(tp.partOf))
	ids := make([]ComponentID, len(tp.partOf))
	for i := range comps {
		comps[i] = &hopRelay{}
		ids[i] = reg(i, comps[i])
	}
	for i := range comps {
		for j := 0; j < tp.nports[i]; j++ {
			comps[i].links = append(comps[i].links, connect(ids[i], ids[tp.dsts[i][j]], tp.lats[i][j]))
		}
	}
	for _, in := range tp.inits {
		schedule(in.t, in.c, Payload{A: in.a})
	}
	return comps
}

// bruteForceBound recomputes a partition's widened edge straight from
// the link table, independently of the engine's cached matrices: the
// earliest time any event-holding partition could deliver into pi over
// any chain of cross links — relays through currently-empty partitions
// and echo cycles back into pi itself included — floored at the
// conservative base window. Chains matter: a partition with no direct
// inbound link can still be reached two barriers later through an
// intermediary, and a drained partition can be re-entered by its own
// earlier sends.
func bruteForceBound(e *ParallelEngine, pi int, base Time) Time {
	n := len(e.parts)
	type edge struct {
		from, to int
		lat      Time
	}
	var edges []edge
	for _, l := range e.links {
		if sp, dp := e.partOf[l.src], e.partOf[l.dst]; sp != dp {
			edges = append(edges, edge{sp, dp, l.latency})
		}
	}
	// Bellman-Ford-style relaxation to the min-plus closure (-1 =
	// unreachable). Cross latencies are positive, so a shortest chain
	// never needs more than n edges even when it is a cycle.
	dist := make([]Time, n*n)
	for i := range dist {
		dist[i] = -1
	}
	for _, ed := range edges {
		if d := dist[ed.from*n+ed.to]; d < 0 || ed.lat < d {
			dist[ed.from*n+ed.to] = ed.lat
		}
	}
	for round := 0; round < n; round++ {
		for i := 0; i < n; i++ {
			for _, ed := range edges {
				via := dist[i*n+ed.from]
				if via < 0 {
					continue
				}
				if d := dist[i*n+ed.to]; d < 0 || via+ed.lat < d {
					dist[i*n+ed.to] = via + ed.lat
				}
			}
		}
	}
	bound := Time(-1)
	for qi, q := range e.parts {
		if q.next < 0 {
			continue
		}
		d := dist[qi*n+pi]
		if d < 0 {
			continue
		}
		if b := q.next + d; bound < 0 || b < bound {
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

func TestSafeBoundNeverBeatsLinkArrivals(t *testing.T) {
	r := testRand(7)
	for trial := 0; trial < 40; trial++ {
		nparts := 2 + r.intn(3)
		tp := genTopology(&r, nparts)
		e := NewParallelEngine(nparts, wideningLookahead)
		tp.build(
			func(i int, c Component) ComponentID { return e.RegisterIn(tp.partOf[i], c) },
			e.Connect,
			func(Time, ComponentID, Payload) {}) // no events: states are synthetic
		e.computeDist() // Run does this lazily; the probes bypass Run

		for probe := 0; probe < 16; probe++ {
			for _, p := range e.parts {
				p.next = -1
				if r.intn(3) > 0 {
					p.next = Time(r.intn(50))
				}
			}
			minT := Time(-1)
			for _, p := range e.parts {
				if p.next >= 0 && (minT < 0 || p.next < minT) {
					minT = p.next
				}
			}
			if minT < 0 {
				continue
			}
			base := minT + e.lookahead
			for pi := range e.parts {
				got := e.safeBound(pi, base)
				if got < base {
					t.Fatalf("trial %d probe %d: safeBound(%d) = %v below conservative base %v",
						trial, probe, pi, got, base)
				}
				if want := bruteForceBound(e, pi, base); got != want {
					t.Fatalf("trial %d probe %d: safeBound(%d) = %v, brute force over links = %v",
						trial, probe, pi, got, want)
				}
			}
		}
	}
}

func TestWideningRandomTopologyMatchesSequential(t *testing.T) {
	r := testRand(42)
	for trial := 0; trial < 60; trial++ {
		nparts := 2 + r.intn(3)
		tp := genTopology(&r, nparts)

		seq := NewEngine()
		seqComps := tp.build(
			func(i int, c Component) ComponentID { return seq.Register(c) },
			seq.Connect, seq.ScheduleAt)
		seq.Run(0)

		par := NewParallelEngine(nparts, wideningLookahead)
		parComps := tp.build(
			func(i int, c Component) ComponentID { return par.RegisterIn(tp.partOf[i], c) },
			par.Connect, par.ScheduleAt)
		par.Run(0)
		par.Close()

		if par.Processed() != seq.Processed() {
			t.Fatalf("trial %d (parts %d): processed %d vs sequential %d",
				trial, nparts, par.Processed(), seq.Processed())
		}
		for i := range seqComps {
			s, p := seqComps[i].times, parComps[i].times
			if len(s) != len(p) {
				t.Fatalf("trial %d (parts %d): component %d delivery count %d vs %d",
					trial, nparts, i, len(p), len(s))
			}
			for j := range s {
				if s[j] != p[j] {
					t.Fatalf("trial %d (parts %d): component %d delivery %d at %d vs %d (ns)\npar: %d\nseq: %d",
						trial, nparts, i, j, p[j], s[j], p, s)
				}
			}
		}
	}
}

// TestWideningHorizonRandomTopology repeats the equivalence property
// under a mid-run horizon plus resume, the paths where the widened
// edges interact with the horizon clamp.
func TestWideningHorizonRandomTopology(t *testing.T) {
	r := testRand(99)
	for trial := 0; trial < 30; trial++ {
		nparts := 2 + r.intn(3)
		tp := genTopology(&r, nparts)
		horizon := Time(10 + r.intn(60))

		seq := NewEngine()
		seqComps := tp.build(
			func(i int, c Component) ComponentID { return seq.Register(c) },
			seq.Connect, seq.ScheduleAt)
		seq.Run(horizon)

		par := NewParallelEngine(nparts, wideningLookahead)
		parComps := tp.build(
			func(i int, c Component) ComponentID { return par.RegisterIn(tp.partOf[i], c) },
			par.Connect, par.ScheduleAt)
		par.Run(horizon)

		check := func(stage string) {
			t.Helper()
			if par.Processed() != seq.Processed() {
				t.Fatalf("trial %d %s: processed %d vs sequential %d",
					trial, stage, par.Processed(), seq.Processed())
			}
			for i := range seqComps {
				s, p := seqComps[i].times, parComps[i].times
				if len(s) != len(p) {
					t.Fatalf("trial %d %s: component %d delivery count %d vs %d",
						trial, stage, i, len(p), len(s))
				}
				for j := range s {
					if s[j] != p[j] {
						t.Fatalf("trial %d %s: component %d delivery %d at %d vs %d (ns)",
							trial, stage, i, j, p[j], s[j])
					}
				}
			}
		}
		check("at horizon")

		seq.Run(0)
		par.Run(0)
		par.Close()
		check("after resume")
	}
}
