package des

import (
	"fmt"
	"sort"
)

// Stall-aware partition rebalancing. The observability layer measures
// per-partition barrier stalls; when they reveal a skewed decomposition
// (one partition serializing the rest), the caller invokes Rebalance
// between runs and the engine reassigns components greedily by the
// event loads it measured itself. The pass moves whole clusters — sets
// of components joined by links shorter than the lookahead, which
// Connect requires to be co-partitioned — so the conservative safety
// condition survives any reassignment by construction.

// RebalanceDecision describes the outcome of one greedy rebalancing
// pass.
type RebalanceDecision struct {
	// Applied reports whether the new assignment was committed: the
	// pass only commits when it strictly lowers the heaviest
	// partition's load.
	Applied bool
	// Moved is the number of components whose partition changed.
	Moved int
	// MaxLoadBefore is the heaviest partition's measured event load
	// under the old assignment; MaxLoadAfter is the heaviest
	// partition's load under the proposed one (predicted from the same
	// measurements).
	MaxLoadBefore uint64
	MaxLoadAfter  uint64
}

// ComponentLoads returns a copy of the per-component delivered-event
// counters. They accumulate across runs — Reset keeps them, because
// they are the workload measurement Rebalance feeds on.
func (e *ParallelEngine) ComponentLoads() []uint64 {
	out := make([]uint64, len(e.loads))
	copy(out, e.loads)
	return out
}

// Rebalance reassigns components to partitions using the event loads
// measured by previous runs: components are clustered by sub-lookahead
// links (which must stay co-partitioned), clusters are placed
// heaviest-first onto the least-loaded partition (greedy LPT), and the
// assignment is committed only if it strictly lowers the heaviest
// partition's load. The decision is deterministic for a given wiring
// and load vector.
//
// Call it between runs on a drained or Reset engine — it panics while
// Run is in progress or with events still pending, because queued
// events are keyed to the partition assignment. The typical sequence is
// run, Reset, Rebalance, reschedule, run.
func (e *ParallelEngine) Rebalance() RebalanceDecision {
	if e.running {
		panic("des: Rebalance during Run")
	}
	for _, p := range e.parts {
		if p.queue.len() > 0 || len(p.inbox) > 0 {
			panic("des: Rebalance with events pending")
		}
	}
	n := len(e.components)
	if n == 0 || len(e.parts) == 1 {
		return RebalanceDecision{}
	}

	// Union-find over sub-lookahead links: those components must share
	// a partition, so the pass moves their clusters atomically. Union
	// by smaller root keeps the structure independent of the order the
	// links were wired in.
	uf := make([]int, n)
	for i := range uf {
		uf[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for uf[x] != x {
			uf[x] = uf[uf[x]] // path halving
			x = uf[x]
		}
		return x
	}
	for _, l := range e.links {
		if l.latency >= e.lookahead {
			continue
		}
		a, b := find(int(l.src)), find(int(l.dst))
		if a == b {
			continue
		}
		if a < b {
			uf[b] = a
		} else {
			uf[a] = b
		}
	}

	// Gather clusters in ascending order of their smallest member, so
	// everything downstream is deterministic.
	type cluster struct {
		members []int
		load    uint64
	}
	idx := make(map[int]int, n)
	var clusters []cluster
	for i := 0; i < n; i++ {
		r := find(i)
		ci, ok := idx[r]
		if !ok {
			ci = len(clusters)
			idx[r] = ci
			clusters = append(clusters, cluster{})
		}
		c := &clusters[ci]
		c.members = append(c.members, i)
		c.load += e.loads[i]
	}

	// Greedy LPT: heaviest cluster first (ties by smallest member id)
	// onto the least-loaded partition (ties by lowest index).
	ord := make([]int, len(clusters))
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(a, b int) bool {
		ca, cb := &clusters[ord[a]], &clusters[ord[b]]
		if ca.load != cb.load {
			return ca.load > cb.load
		}
		return ca.members[0] < cb.members[0]
	})
	binLoad := make([]uint64, len(e.parts))
	assign := make([]int, len(clusters))
	for _, ci := range ord {
		best := 0
		for b := 1; b < len(binLoad); b++ {
			if binLoad[b] < binLoad[best] {
				best = b
			}
		}
		assign[ci] = best
		binLoad[best] += clusters[ci].load
	}

	curLoad := make([]uint64, len(e.parts))
	for i := 0; i < n; i++ {
		curLoad[e.partOf[i]] += e.loads[i]
	}
	d := RebalanceDecision{
		MaxLoadBefore: maxLoad(curLoad),
		MaxLoadAfter:  maxLoad(binLoad),
	}
	if d.MaxLoadAfter >= d.MaxLoadBefore {
		return d // no strict improvement: keep the current assignment
	}
	for ci := range clusters {
		for _, m := range clusters[ci].members {
			if e.partOf[m] != assign[ci] {
				e.partOf[m] = assign[ci]
				d.Moved++
			}
		}
	}
	d.Applied = true
	e.rebuildPairMin()
	if e.adaptive != nil {
		e.adaptive.RebalanceApplied(e.stream, d.Moved, d.MaxLoadBefore, d.MaxLoadAfter)
	}
	return d
}

// rebuildPairMin recomputes the per-partition-pair minimum cross-link
// latencies after a reassignment, re-checking the conservative safety
// condition on the way (unreachable by construction — sub-lookahead
// links never cross clusters — but cheap to keep as an invariant).
func (e *ParallelEngine) rebuildPairMin() {
	for i := range e.pairMin {
		e.pairMin[i] = -1
	}
	n := len(e.parts)
	for _, l := range e.links {
		sp, dp := e.partOf[l.src], e.partOf[l.dst]
		if sp == dp {
			continue
		}
		if l.latency < e.lookahead {
			panic(fmt.Sprintf("des: rebalance produced unsafe cross-partition link %d->%d latency %v below lookahead %v",
				l.src, l.dst, l.latency, e.lookahead))
		}
		if i := sp*n + dp; e.pairMin[i] < 0 || l.latency < e.pairMin[i] {
			e.pairMin[i] = l.latency
		}
	}
	e.distDirty = true
}

func maxLoad(loads []uint64) uint64 {
	var m uint64
	for _, l := range loads {
		if l > m {
			m = l
		}
	}
	return m
}
