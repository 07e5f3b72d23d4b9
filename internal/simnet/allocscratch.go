package simnet

import (
	"math"
	"slices"
)

// component is the persistent record of one connected component of the
// resource-sharing graph: its flows in canonical seq order and, once a
// pass has flattened them, the CSR form of their flow->resource edges.
// Every member flow points at it (flow.comp), so a flush whose seed
// holds a live record skips the gather, the sort and the flatten and
// pays only for what a window tick changes. A record caches structure
// only — who is in the component, in what order, which edges — never a
// value that depends on window caps, capacities or time, so a pass over
// a record performs the same arithmetic in the same order as a pass
// over a fresh gather. Any membership or edge change (attachLocked,
// detachLocked, invalidateRefs) marks the records it touches stale;
// bound counts the flows still pointing here, and the last one to leave
// returns the record to Net.compFree.
type component struct {
	flows []*flow
	bound int
	stale bool

	// CSR flatten of the flows' resource lists, valid while flat: the
	// distinct resources in first-seen order with their dense ids, and
	// per flow the [refStart[i], refStart[i+1]) window of refID/refW.
	// unfrozen is the pass's worklist (every flow but an unconstrained
	// loopback).
	flat     bool
	ress     []*res
	touched  []int
	refStart []int32
	refID    []int32
	refW     []float64
	unfrozen []int32
}

// allocScratch is the progressive-filling allocator's per-pass working
// state: every value array the water-filling touches. A pass reads only
// frozen per-instant inputs (flow caps, resource capacities) and its
// own component's record.
//
// The resource-indexed arrays (residual, wsum, ...) are sized to the
// Net's global dense resource-id space and grown lazily; wsum carries
// the only cross-pass invariant (entries must be >= 0 between passes —
// it doubles as the flatten's "seen" mark), which holds per scratch
// because every pass re-zeroes the entries it touched before returning.
type allocScratch struct {
	residual []float64
	wsum     []float64
	rates    []float64
	frozen   []bool
	caps     []float64
	// Per-resource water-filling state (unfrozen-flow count, exhaust
	// level, last-update level) and the inverse resource->flow lists.
	resCnt   []int32
	exhaust  []float64
	lastLv   []float64
	invStart []int32
	invCur   []int32
	invFlow  []int32
	live     []int
	capHeap  []int32
}

// alloc computes the weighted max-min fair rate (bits/s) for each flow
// of c by progressive filling, honouring per-flow window caps, link
// capacities, and host CPU/disk budgets. It does not mutate the flows;
// rates[i] corresponds to c.flows[i]. The returned slice is scratch
// owned by sc and is only valid until the next alloc call on it. nResID
// is the Net's dense resource-id bound, frozen for the duration of a
// flush.
//
// The filling is phrased in water levels rather than per-round deltas:
// every unfrozen flow's rate equals the global level T, each resource
// carries the level at which it would exhaust under current demand, and
// flow caps are a min-heap of freeze levels. A round picks the lowest
// freeze level, advances T to it, and freezes exactly the flows bound
// there; only a freeze touches a resource's state (one divide per
// flow-resource edge for the whole pass, instead of one per resource per
// round), so a pass is O(rounds * live-resources) compares plus O(edges)
// updates. Since every live resource has at least one unfrozen flow,
// every round freezes at least one flow and the loop terminates in at
// most len(fs) rounds — no floating-point residue can stall it.
func (sc *allocScratch) alloc(c *component, nResID int) []float64 {
	fs := c.flows
	if cap(sc.rates) < len(fs) {
		sc.rates = make([]float64, len(fs))
		sc.frozen = make([]bool, len(fs))
		sc.caps = make([]float64, len(fs))
	}
	rates := sc.rates[:len(fs)]
	frozen := sc.frozen[:len(fs)]
	caps := sc.caps[:len(fs)]
	for i := range rates {
		rates[i] = 0
		frozen[i] = false
	}
	if len(fs) == 0 {
		return rates
	}
	if len(sc.residual) < nResID {
		sc.residual = make([]float64, nResID)
		sc.wsum = make([]float64, nResID)
		sc.resCnt = make([]int32, nResID)
		sc.exhaust = make([]float64, nResID)
		sc.lastLv = make([]float64, nResID)
		sc.invStart = make([]int32, nResID)
		sc.invCur = make([]int32, nResID)
	}
	residual := sc.residual
	wsum := sc.wsum
	rescnt := sc.resCnt
	exhaust := sc.exhaust
	lastLv := sc.lastLv
	invStart := sc.invStart
	invCur := sc.invCur

	if c.flat {
		// A steady-state component re-allocates on every window-growth
		// tick with the same flows in the same order and the same edges;
		// only window caps and resource capacities move. Refresh those.
		for j, r := range c.ress {
			residual[c.touched[j]] = r.effective()
		}
		for i, f := range fs {
			caps[i] = f.windowCap
		}
	} else {
		sc.flatten(c, rates, frozen, caps)
	}
	touched := c.touched
	refStart := c.refStart
	refID := c.refID
	refW := c.refW
	unfrozen := c.unfrozen

	// Fast path: when every flow can take its full window cap without
	// exhausting any resource, the allocation is simply the caps, and the
	// water-filling rounds below are skipped. This is the common case in
	// the paper's window-limited regime — underfilled WAN pipes are the
	// entire motivation for parallel and striped transfers — where every
	// pass ends with all flows frozen at their caps anyway. One
	// accumulation over the edges decides (exhaust doubles as the cap-load
	// scratch; it is rebuilt below when the check fails).
	feasible := true
	for _, id := range touched {
		exhaust[id] = 0
	}
	for _, fi := range unfrozen {
		fc := caps[fi]
		if math.IsInf(fc, 1) {
			feasible = false
			break
		}
		for k := refStart[fi]; k < refStart[fi+1]; k++ {
			exhaust[refID[k]] += refW[k] * fc
		}
	}
	if feasible {
		for _, id := range touched {
			if exhaust[id] > residual[id] {
				feasible = false
				break
			}
		}
	}
	if feasible {
		for _, fi := range unfrozen {
			rates[fi] = caps[fi]
		}
		return rates
	}

	// Weighted demand on each touched resource, computed once; a freezing
	// flow withdraws its weights instead of any round recomputing them.
	// Only the water-filling needs it, so the fast path above never pays.
	for _, id := range touched {
		wsum[id] = 0
		rescnt[id] = 0
	}
	for _, fi := range unfrozen {
		for k := refStart[fi]; k < refStart[fi+1]; k++ {
			wsum[refID[k]] += refW[k]
			rescnt[refID[k]]++
		}
	}

	// Per-resource water levels: exhaust is the fill level at which the
	// resource runs out under its current weighted demand; lastLv is the
	// level at which residual/wsum were last brought up to date. resLB
	// tracks the exact minimum exhaust level as of the last full scan;
	// freezes only ever raise exhaust levels, so between scans it stays a
	// valid lower bound — and any cap at or below it can freeze its flow
	// with no scan at all.
	live := sc.live[:0]
	resLB := math.Inf(1)
	for _, id := range touched {
		if rescnt[id] > 0 {
			exhaust[id] = residual[id] / wsum[id]
			lastLv[id] = 0
			live = append(live, id)
			if exhaust[id] < resLB {
				resLB = exhaust[id]
			}
		}
	}

	// Inverse lists (resource -> unfrozen flows) let a resource exhausting
	// at level T freeze exactly its own flows without scanning the whole
	// worklist. Window-limited passes never freeze by resource, so the
	// build is deferred until the first one does.
	var invFlow []int32
	invBuilt := false
	buildInv := func() {
		if cap(sc.invFlow) < len(refID) {
			sc.invFlow = make([]int32, len(refID))
		}
		invFlow = sc.invFlow[:len(refID)]
		var off int32
		for _, id := range touched {
			invCur[id] = off
			off += rescnt[id]
		}
		for _, fi := range unfrozen {
			if frozen[fi] {
				continue
			}
			for k := refStart[fi]; k < refStart[fi+1]; k++ {
				id := refID[k]
				invFlow[invCur[id]] = fi
				invCur[id]++
			}
		}
		// Each cursor now sits one past its list; recover the starts while
		// rescnt still holds the counts the fill used. Later freezes mark
		// flows frozen rather than editing the lists, so consumers skip
		// frozen entries.
		for _, id := range touched {
			invStart[id] = invCur[id] - rescnt[id]
		}
		invBuilt = true
	}

	// Min-heap of window-cap freeze levels (lazy deletion: entries for
	// already resource-frozen flows are discarded at peek time).
	capHeap := sc.capHeap[:0]
	for _, fi := range unfrozen {
		capHeap = append(capHeap, fi)
		for c := len(capHeap) - 1; c > 0; {
			p := (c - 1) / 2
			if caps[capHeap[p]] <= caps[capHeap[c]] {
				break
			}
			capHeap[p], capHeap[c] = capHeap[c], capHeap[p]
			c = p
		}
	}
	sc.capHeap = capHeap

	// freeze pins one flow at rate r and withdraws its weighted demand.
	// Touched resources get their residual brought up to level T and are
	// marked stale (exhaust -1); the divide to refresh the exhaust level
	// is deferred to the next scan that actually looks at it.
	nUnfrozen := len(unfrozen)
	var T float64
	freeze := func(fi int32, r float64) {
		rates[fi] = r
		frozen[fi] = true
		nUnfrozen--
		for k := refStart[fi]; k < refStart[fi+1]; k++ {
			id := refID[k]
			if lastLv[id] < T {
				residual[id] -= (T - lastLv[id]) * wsum[id]
				if residual[id] < 0 {
					residual[id] = 0
				}
				lastLv[id] = T
			}
			wsum[id] -= refW[k]
			if rescnt[id]--; rescnt[id] == 0 {
				// No unfrozen flow left: exactly spent, whatever float
				// residue the withdrawals left behind.
				wsum[id] = 0
			} else {
				exhaust[id] = -1
			}
		}
	}

	for nUnfrozen > 0 {
		// Lowest unfrozen window cap (lazy deletion of frozen entries).
		for len(capHeap) > 0 && frozen[capHeap[0]] {
			capHeap = capHeapPop(capHeap, caps)
		}
		capTop := math.Inf(1)
		if len(capHeap) > 0 {
			capTop = caps[capHeap[0]]
		}
		level := capTop
		minRes := -1
		if capTop > resLB {
			// The cap might not be the binding constraint: rescan for the
			// exact minimum exhaust level, refreshing stale entries (one
			// divide each) and swap-removing dead resources.
			resLevel := math.Inf(1)
			for u := 0; u < len(live); {
				id := live[u]
				if rescnt[id] == 0 {
					live[u] = live[len(live)-1]
					live = live[:len(live)-1]
					continue
				}
				e := exhaust[id]
				if e < 0 {
					e = lastLv[id] + residual[id]/wsum[id]
					exhaust[id] = e
				}
				if e < resLevel {
					resLevel, minRes = e, id
				}
				u++
			}
			resLB = resLevel
			if resLevel <= capTop {
				// Resources win ties so equal-level constraints resolve
				// in deterministic order.
				level = resLevel
			} else {
				minRes = -1
			}
		}
		if math.IsInf(level, 1) {
			// Nothing constrains the remaining flows (zero-RTT paths over
			// unlimited resources): effectively instant.
			for _, fi := range unfrozen {
				if !frozen[fi] {
					rates[fi] = loopbackBps
					frozen[fi] = true
				}
			}
			nUnfrozen = 0
			break
		}
		T = level
		if minRes < 0 {
			fi := capHeap[0]
			capHeap = capHeapPop(capHeap, caps)
			freeze(fi, caps[fi])
		} else {
			// The resource exhausts exactly at T: every flow still on it
			// freezes here, at its fair share. Symmetric topologies tend to
			// exhaust many resources at exactly the same level, so sweep
			// them all in this round (in live order, the order successive
			// rescans would visit them) instead of paying a rescan per tied
			// resource. A tied resource touched by an earlier freeze in the
			// sweep goes stale (exhaust -1) and is left for the next round,
			// where the rescan recomputes its true level.
			if !invBuilt {
				buildInv()
			}
			for _, id := range live {
				if rescnt[id] == 0 || exhaust[id] != T {
					continue
				}
				for k := invStart[id]; k < invCur[id]; k++ {
					if fi := invFlow[k]; !frozen[fi] {
						freeze(fi, T)
					}
				}
			}
		}
	}
	sc.capHeap = capHeap[:0]
	sc.live = live[:0]
	// The incremental withdrawals can leave float residue of either sign;
	// the next pass's seen-marks need wsum non-negative.
	for _, id := range touched {
		wsum[id] = 0
	}
	return rates
}

// flatten builds c's CSR form — flow->resource lists as dense arrays, so
// every round of the filling is pure array arithmetic with no pointer
// chasing — and loads this pass's caps and residuals on the way.
func (sc *allocScratch) flatten(c *component, rates []float64, frozen []bool, caps []float64) {
	residual, wsum := sc.residual, sc.wsum
	// Size every array once, to its bound: a run with many components
	// holds many records, and growing each by doubling is what it would
	// pay for them.
	nf, nref := len(c.flows), 0
	for _, f := range c.flows {
		nref += len(f.refs())
	}
	c.ress, c.touched = slices.Grow(c.ress[:0], nref), slices.Grow(c.touched[:0], nref)
	c.refStart, c.unfrozen = slices.Grow(c.refStart[:0], nf+1), slices.Grow(c.unfrozen[:0], nf)
	c.refID, c.refW = slices.Grow(c.refID[:0], nref), slices.Grow(c.refW[:0], nref)
	for i, f := range c.flows {
		c.refStart = append(c.refStart, int32(len(c.refID)))
		caps[i] = f.windowCap
		refs := f.refs()
		if len(refs) == 0 && math.IsInf(f.windowCap, 1) {
			// Loopback with no constraining resource: effectively instant.
			rates[i] = loopbackBps
			frozen[i] = true
			continue
		}
		c.unfrozen = append(c.unfrozen, int32(i))
		for _, rr := range refs {
			id := rr.r.id
			if wsum[id] >= 0 { // wsum doubles as the "seen this pass" mark
				wsum[id] = -1
				residual[id] = rr.r.effective()
				c.touched = append(c.touched, id)
				c.ress = append(c.ress, rr.r)
			}
			c.refID = append(c.refID, int32(id))
			c.refW = append(c.refW, rr.w)
		}
	}
	c.refStart = append(c.refStart, int32(len(c.refID)))
	for _, id := range c.touched {
		wsum[id] = 0
	}
	// Keep only all-unfrozen flattens: a later pass then has nothing to
	// re-freeze before it starts.
	c.flat = len(c.unfrozen) == len(c.flows)
}

// capHeapPop removes the root of the window-cap min-heap.
func capHeapPop(h []int32, caps []float64) []int32 {
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	c := 0
	for {
		l, r := 2*c+1, 2*c+2
		s := c
		if l < len(h) && caps[h[l]] < caps[h[s]] {
			s = l
		}
		if r < len(h) && caps[h[r]] < caps[h[s]] {
			s = r
		}
		if s == c {
			break
		}
		h[c], h[s] = h[s], h[c]
		c = s
	}
	return h
}

// loopbackBps is the stand-in rate for unconstrained (same-host) traffic.
const loopbackBps = 40e9
