package simnet

import (
	"math"
	"slices"
)

// component is the persistent record of one connected component of the
// resource-sharing graph: its flows in canonical seq order and, once a
// pass has flattened them, the CSR form of their flow->resource edges
// plus the feasibility memo built beside it. Every member flow points at
// it (flow.comp), so a flush whose seed holds a live record skips the
// gather, the sort and the flatten and pays only for what a window tick
// changes. The structure — who is in the component, in what order, which
// edges — is what a fresh gather would rebuild. The only values a record
// holds are memos of arithmetic a pass would redo bit for bit from
// inputs it re-checks every pass (see capsFeasible), so a pass over a
// record decides exactly what a pass over a fresh gather decides. Any
// membership or edge change (attachLocked, detachLocked, invalidateRefs)
// marks the records it touches stale; bound counts the flows still
// pointing here, and the last one to leave returns the record to
// Net.compFree.
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

	// Feasibility memo, built by flatten and valid while flat. caps[i] is
	// the window cap flow i had at the last pass. refRes holds each CSR
	// edge's resource as its index j into ress. load[j] is the ordered
	// sum 0 + t1 + t2 + ... of w*cap over resource j's edges, in CSR
	// visit order, at the stored caps. The same edges grouped by resource
	// — colFlow/colW over [colStart[j], colStart[j+1]) — are what a
	// re-sum walks; rep[j] is the first of the run of adjacent resources
	// whose columns are identical to j's (same flows, same order,
	// bit-equal weights), all of which one re-sum serves. Both are valid
	// while cols (see columns). capEff[j] is resource j's effective
	// capacity, valid while capsOK: flushLocked clears it when a resource
	// the record touches is marked dirty, the only way a capacity change
	// reaches the allocator. nInf counts the infinite stored caps and
	// over the resources with load[j] > capEff[j].
	caps     []float64
	refRes   []int32
	load     []float64
	colStart []int32
	colFlow  []int32
	colW     []float64
	rep      []int32
	cols     bool
	capEff   []float64
	capsOK   bool
	nInf     int
	over     int

	// The backing stores every int32 and float64 array above is carved
	// from, sized once per flatten.
	i32 []int32
	f64 []float64
}

// dropCaps marks the record's stored capacities stale; its next pass
// re-reads them.
func (c *component) dropCaps() {
	if c != nil {
		c.capsOK = false
	}
}

// allocScratch is the progressive-filling allocator's per-pass working
// state: every value array the water-filling touches. A pass reads only
// frozen per-instant inputs (flow caps, resource capacities) and its
// own component's record.
//
// The resource-indexed arrays (residual, wsum, ...) are sized to the
// Net's global dense resource-id space and grown lazily. Two of them
// carry a cross-pass invariant, which holds per scratch because every
// pass restores the entries it touched before returning: wsum entries
// are >= 0 between passes (it doubles as the flatten's "seen" mark), and
// queued entries are false (queued[r] marks column r, a record-local
// index, as on queue for a re-sum this pass).
type allocScratch struct {
	residual []float64
	wsum     []float64
	queued   []bool
	queue    []int32
	rates    []float64
	frozen   []bool
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
// rates[i] corresponds to c.flows[i]. The returned slice is scratch —
// sc's, or c's stored caps — and is only valid until the next alloc
// call on either, and it must not be written. nResID
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
	}
	// rates needs no clearing: flatten writes the frozen loopbacks' and
	// the filling every other flow's.
	rates := sc.rates[:len(fs)]
	frozen := sc.frozen[:len(fs)]
	if len(fs) == 0 {
		return rates
	}
	if len(sc.residual) < nResID {
		sc.residual = make([]float64, nResID)
		sc.wsum = make([]float64, nResID)
		sc.queued = make([]bool, nResID)
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

	flattened := !c.flat
	if flattened {
		clear(frozen)
		sc.flatten(c, rates, frozen)
	}
	touched := c.touched
	refStart := c.refStart
	refID := c.refID
	refW := c.refW
	unfrozen := c.unfrozen
	caps := c.caps

	// Fast path: when every flow can take its full window cap without
	// exhausting any resource, the allocation is simply the caps, and the
	// water-filling rounds below are skipped. This is the common case in
	// the paper's window-limited regime — underfilled WAN pipes are the
	// entire motivation for parallel and striped transfers — where every
	// pass ends with all flows frozen at their caps anyway.
	if sc.capsFeasible(c) {
		if c.flat {
			return caps // every flow is unfrozen
		}
		for _, fi := range unfrozen {
			rates[fi] = caps[fi]
		}
		return rates
	}
	if !flattened {
		clear(frozen)
	}
	for j, id := range touched {
		residual[id] = c.capEff[j]
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

// capsFeasible reports whether every unfrozen flow of c can take its
// full window cap without exhausting any resource, bringing c's memo up
// to date on the way:
//
//  1. each flow's cap is compared with the stored one by bit pattern,
//     and the columns of a flow whose cap moved are queued for a re-sum
//     (once per run of identical columns);
//  2. exactly those loads are re-summed from zero, over the same terms
//     in the same order, and each resource whose load moved is compared
//     with its stored capacity before and after, keeping the count of
//     resources over capacity exact;
//  3. if a capacity moved since the last pass, every capacity is re-read
//     and every resource compared afresh.
//
// No load is ever adjusted by a delta: each is the left fold a pass
// from scratch would compute, over inputs checked this pass, and every
// comparison whose inputs moved is redone, so the decision is bit for
// bit the from-scratch one — including that any infinite cap makes the
// caps infeasible. Every queued mark is cleared before returning.
func (sc *allocScratch) capsFeasible(c *component) bool {
	// The record's slices in locals: the compiler reloads fields of c on
	// every iteration otherwise. The column arrays are carved by layout,
	// so their headers stay valid when columns fills them.
	queued, queue := sc.queued, sc.queue[:0]
	flows, caps, refStart, refRes, rep := c.flows, c.caps, c.refStart, c.refRes, c.rep
	for _, fi := range c.unfrozen {
		fc := flows[fi].windowCap
		if math.Float64bits(fc) == math.Float64bits(caps[fi]) {
			continue
		}
		if !c.cols {
			sc.columns(c)
		}
		c.nInf += isInf(fc) - isInf(caps[fi])
		caps[fi] = fc
		for _, j := range refRes[refStart[fi]:refStart[fi+1]] {
			if r := rep[j]; !queued[r] {
				queued[r] = true
				queue = append(queue, r)
			}
		}
	}
	sc.queue = queue
	load, capEff := c.load, c.capEff
	colStart, colFlow, colW := c.colStart, c.colFlow, c.colW
	for _, r := range queue {
		queued[r] = false
		s, e := colStart[r], colStart[r+1]
		l := colLoad(colFlow[s:e], colW[s:e], caps)
		for j := int(r); j < len(rep) && rep[j] == r; j++ {
			if load[j] > capEff[j] {
				c.over--
			}
			if load[j] = l; l > capEff[j] {
				c.over++
			}
		}
	}
	if !c.capsOK {
		c.over = 0
		for j, res := range c.ress {
			if capEff[j] = res.effective(); load[j] > capEff[j] {
				c.over++
			}
		}
		c.capsOK = true
	}
	return c.nInf == 0 && c.over == 0
}

// columns builds c's resource-major edge lists and their shared-column
// reps: a counting sort of the edges by resource, stable in CSR order.
// It runs on the first pass that must re-sum a load, so a record that
// is re-gathered before it ever sees a cap move never pays for it. resCnt
// is free until the filling starts; it holds the fill cursors.
func (sc *allocScratch) columns(c *component) {
	colStart, colFlow, colW, rep := c.colStart, c.colFlow, c.colW, c.rep
	cur := sc.resCnt[:len(rep)]
	clear(cur)
	for _, j := range c.refRes {
		cur[j]++
	}
	var off int32
	for j, n := range cur {
		colStart[j], cur[j] = off, off
		off += n
	}
	colStart[len(rep)] = off
	refStart, refRes, refW := c.refStart, c.refRes, c.refW
	for _, fi := range c.unfrozen {
		for k := refStart[fi]; k < refStart[fi+1]; k++ {
			p := cur[refRes[k]]
			cur[refRes[k]] = p + 1
			colFlow[p], colW[p] = fi, refW[k]
		}
	}
	// Links in series along a shared path carry the same flows, so they
	// sit next to each other in first-seen order: comparing each column
	// with its predecessor finds them in O(edges).
	for j := range rep {
		rep[j] = int32(j)
		if j > 0 && sameColumn(colFlow, colW, colStart[j-1], colStart[j], colStart[j+1]) {
			rep[j] = rep[j-1]
		}
	}
	c.cols = true
}

// colLoad is one column's load at caps: the left fold
// 0 + w1*cap1 + w2*cap2 + ... in CSR visit order.
func colLoad(flows []int32, w []float64, caps []float64) float64 {
	w = w[:len(flows)]
	load := 0.0
	for e, fi := range flows {
		load += w[e] * caps[fi]
	}
	return load
}

// isInf is 1 for an infinite cap, else 0.
func isInf(x float64) int {
	if math.IsInf(x, 1) {
		return 1
	}
	return 0
}

// sameColumn reports whether the adjacent columns [a, b) and [b, end)
// are identical: the same flows in the same order with bit-equal
// weights.
func sameColumn(colFlow []int32, colW []float64, a, b, end int32) bool {
	if end-b != b-a {
		return false
	}
	for e := range b - a {
		if colFlow[a+e] != colFlow[b+e] || math.Float64bits(colW[a+e]) != math.Float64bits(colW[b+e]) {
			return false
		}
	}
	return true
}

// flatten builds c's CSR form — flow->resource lists as dense arrays, so
// every round of the filling is pure array arithmetic with no pointer
// chasing — and beside it the feasibility memo: this pass's caps and
// every resource's load, summed in CSR visit order, leaving the
// capacities for the pass to read and the columns for the first re-sum
// (columns).
func (sc *allocScratch) flatten(c *component, rates []float64, frozen []bool) {
	// local is water-filling scratch, free until it starts.
	wsum, local := sc.wsum, sc.invCur
	// Size every array once, to its bound (a component has at most nref
	// distinct resources): a run with many components holds many
	// records, and growing each by doubling is what it would pay for
	// them.
	nf, nref := len(c.flows), 0
	for _, f := range c.flows {
		nref += len(f.refs())
	}
	c.ress, c.touched = slices.Grow(c.ress[:0], nref), slices.Grow(c.touched[:0], nref)
	c.layout(nf, nref)
	for i, f := range c.flows {
		c.refStart = append(c.refStart, int32(len(c.refID)))
		c.caps[i] = f.windowCap
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
				local[id] = int32(len(c.touched))
				c.touched = append(c.touched, id)
				c.ress = append(c.ress, rr.r)
			}
			c.refID = append(c.refID, int32(id))
			c.refRes = append(c.refRes, local[id])
			c.refW = append(c.refW, rr.w)
		}
	}
	c.refStart = append(c.refStart, int32(len(c.refID)))
	for _, id := range c.touched {
		wsum[id] = 0
	}

	nres := len(c.touched)
	c.colStart, c.rep = c.colStart[:nres+1], c.rep[:nres]
	c.load, c.capEff = c.load[:nres], c.capEff[:nres]
	c.cols = false
	c.sumLoads()
	c.capsOK = false // the first pass reads them and counts over
	// Keep only all-unfrozen flattens: a later pass then has nothing to
	// re-freeze before it starts.
	c.flat = len(c.unfrozen) == len(c.flows)
}

// layout sizes c's backing stores for nf flows and nref edges (so at
// most nref resources) and carves every int32 and float64 array from
// them; the CSR arrays start empty, the per-resource ones at their
// bound. It and sumLoads are kept out of flatten to keep its frame
// small: flatten's call to f.refs is the flush's deepest stack, and a
// deeper one makes goroutine stacks grow again after every GC shrinks
// them (S11 measured it).
func (c *component) layout(nf, nref int) {
	i32 := resize(&c.i32, 2*nf+5*nref+2)
	f64 := resize(&c.f64, nf+4*nref)
	c.refStart, c.unfrozen = carve(&i32, nf+1)[:0], carve(&i32, nf)[:0]
	c.refID, c.refRes, c.refW = carve(&i32, nref)[:0], carve(&i32, nref)[:0], carve(&f64, nref)[:0]
	c.colStart, c.rep, c.colFlow = carve(&i32, nref+1), carve(&i32, nref), carve(&i32, nref)
	c.caps, c.load, c.capEff, c.colW = carve(&f64, nf), carve(&f64, nref), carve(&f64, nref), carve(&f64, nref)
}

// sumLoads sums every resource's load at the stored caps, each the left
// fold 0 + t1 + t2 + ... over its edges in CSR visit order — the order a
// column walk re-sums them in — and counts the infinite caps.
func (c *component) sumLoads() {
	load, caps, refStart, refRes, refW := c.load, c.caps, c.refStart, c.refRes, c.refW
	clear(load)
	c.nInf = 0
	for _, fi := range c.unfrozen {
		fc := caps[fi]
		c.nInf += isInf(fc)
		for k := refStart[fi]; k < refStart[fi+1]; k++ {
			load[refRes[k]] += refW[k] * fc
		}
	}
}

// resize sets *buf to n elements, reallocating only when its capacity
// falls short, and returns it.
func resize[T any](buf *[]T, n int) []T {
	*buf = slices.Grow((*buf)[:0], n)[:n]
	return *buf
}

// carve takes the first n elements off *buf, capped at n so appends to
// the result never run into what is carved next.
func carve[T any](buf *[]T, n int) []T {
	s := (*buf)[:n:n]
	*buf = (*buf)[n:]
	return s
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
