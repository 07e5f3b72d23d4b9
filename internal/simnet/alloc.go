package simnet

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// Incremental, component-scoped max-min allocation.
//
// The fluid model's cost driver is recomputation: every window-growth,
// loss, enqueue and linger event changes some flow's demand and requires a
// fresh fair allocation. Folding and re-allocating every active flow on
// every event is O(events x flows x path) — fine for the paper's eight
// striped pairs, quadratic blow-up for thousands of concurrent transfers.
//
// Two observations fix this:
//
//  1. Max-min allocation decomposes exactly over the connected components
//     of the resource-sharing graph (flows are vertices; two flows are
//     adjacent when they consume a common link direction or host CPU/disk
//     budget). Flows in different components cannot influence each
//     other's rates, so an event only requires re-allocating the
//     component(s) it touches.
//
//  2. Many events land on the same virtual instant (eight stripe streams
//     all losing their linger timer at once, a burst of enqueues). One
//     allocation pass at that instant covers them all.
//
// The implementation maintains, on every resource, the list of active
// flows consuming it (attachLocked/detachLocked keep the lists in sync as
// flows activate, deactivate and change disk binding). Events mark the
// flows or resources they touch dirty and arm a single zero-delay flush
// event; when the simulator reaches quiescence at that same instant,
// flushLocked looks up each dirty component's persistent record
// (componentLocked; an epoch-stamped BFS over the membership lists
// rebuilds it after a membership change) and runs the progressive-filling
// allocator on just those flows. Records and scratch are recycled, so a
// steady-state recomputation performs no heap allocation.
//
// Ordering everywhere is append-order over slices — never map iteration —
// so allocation order, and with it floating-point rounding and timer
// sequencing, is identical from run to run.

// resEntry records one active flow's membership in a resource's flow
// list. ref is the index of this resource within the flow's cached refs,
// so a swap-remove can fix the moved entry's back-pointer in O(1).
type resEntry struct {
	f   *flow
	ref int
}

// attachLocked enters an activating flow into the membership lists of
// every resource it consumes. Caller holds Net.mu.
func (n *Net) attachLocked(f *flow) {
	if f.attached {
		return
	}
	refs := f.refs()
	for j, rr := range refs {
		// Every flow on a resource shares one component, so the first
		// one's record is the record of the component f is joining.
		if len(rr.r.flows) > 0 {
			rr.r.flows[0].f.comp.markStale()
		}
		refs[j].pos = len(rr.r.flows)
		rr.r.flows = append(rr.r.flows, resEntry{f: f, ref: j})
	}
	f.attached = true
}

// detachLocked removes a deactivating flow from its resources' membership
// lists and marks those resources dirty, since the remaining flows can
// now claim its share. Caller holds Net.mu.
func (n *Net) detachLocked(f *flow) {
	if !f.attached {
		return
	}
	f.comp.markStale()
	n.bindLocked(f, nil)
	for _, rr := range f.refs() {
		r := rr.r
		p := rr.pos
		last := len(r.flows) - 1
		moved := r.flows[last]
		r.flows[p] = moved
		moved.f.resRefs[moved.ref].pos = p
		r.flows[last] = resEntry{}
		r.flows = r.flows[:last]
		n.markResDirtyLocked(r)
	}
	f.attached = false
}

// markFlowDirtyLocked queues one flow's component for re-allocation at
// this instant and arms the coalesced flush.
func (n *Net) markFlowDirtyLocked(f *flow) {
	if !f.dirty {
		f.dirty = true
		n.dirtyFlows = append(n.dirtyFlows, f)
	}
	n.requestFlushLocked()
}

// markResDirtyLocked queues the component(s) of every flow on a resource
// for re-allocation (capacity faults, departures) and arms the flush.
func (n *Net) markResDirtyLocked(r *res) {
	if !r.dirty {
		r.dirty = true
		n.dirtyRes = append(n.dirtyRes, r)
	}
	n.requestFlushLocked()
}

// flowActivatedLocked registers a newly active flow with the allocator.
func (n *Net) flowActivatedLocked(f *flow) {
	n.flowsActive.Add(1)
	if n.observing {
		n.observeActivationLocked(f)
	}
	n.attachLocked(f)
	n.markFlowDirtyLocked(f)
}

// flowDeactivatedLocked withdraws a no-longer-active flow; its former
// resources are marked dirty by the detach.
func (n *Net) flowDeactivatedLocked(f *flow) {
	n.flowsActive.Add(-1)
	n.detachLocked(f)
}

// requestFlushLocked arms a zero-delay flush event, unless one is already
// pending. Every event that dirties allocation state at virtual instant T
// funnels into the single flush that fires at T once the simulation is
// quiescent — that is what coalesces a burst of same-instant events into
// one allocation pass.
func (n *Net) requestFlushLocked() {
	if n.flushPending {
		return
	}
	n.flushPending = true
	n.clk.ArmInstantHook()
}

// flushLocked re-allocates every dirty component at the current instant.
// It is cheap (a no-op) when nothing is dirty, so read paths call it
// directly to observe fresh rates without waiting for the flush event.
func (n *Net) flushLocked() {
	if len(n.dirtyFlows) == 0 && len(n.dirtyRes) == 0 {
		return
	}
	now := n.clk.Elapsed()
	n.epoch++
	// Canonicalize the seed order before any component is gathered.
	// Dirty marks arrive in the order the instant's events and goroutines
	// ran, and progressive filling's floating-point rounding depends on
	// visit order — sorting by creation stamp makes every flush (and so
	// every rate bit) a function of the flows alone.
	sortFlowsBySeq(n.dirtyFlows)
	sortResByID(n.dirtyRes)
	// A dirty resource is how a capacity change (Link.SetUp,
	// Link.SetCapacityFactor) reaches the allocator: every record with a
	// flow on it re-reads its capacities, before any pass can run on it.
	for _, r := range n.dirtyRes {
		for _, e := range r.flows {
			e.f.comp.dropCaps()
		}
	}
	for _, f := range n.dirtyFlows {
		f.dirty = false
		if f.removed || !f.active || f.epoch == n.epoch {
			continue
		}
		n.reallocComponentLocked(f, now)
	}
	for _, r := range n.dirtyRes {
		r.dirty = false
		// Every flow on r is in r's component; the first unvisited one
		// pulls in all the others with its component.
		for _, e := range r.flows {
			if e.f.epoch != n.epoch {
				n.reallocComponentLocked(e.f, now)
			}
		}
	}
	n.dirtyFlows = n.dirtyFlows[:0]
	n.dirtyRes = n.dirtyRes[:0]
	if n.verifyAllocs {
		n.verifyAllocationsLocked()
	}
	n.observeFlushLocked(now)
}

// markStale invalidates a record after a membership or edge change in
// its component; the next flush seeded there gathers afresh.
func (c *component) markStale() {
	if c != nil {
		c.stale = true
	}
}

// bindLocked points f at record c (nil: at none), recycling the record
// it leaves once no flow refers to it.
func (n *Net) bindLocked(f *flow, c *component) {
	if old := f.comp; old != nil {
		if old.bound--; old.bound == 0 {
			clear(old.flows) // let retired flows be collected
			clear(old.ress)
			n.compFree = append(n.compFree, old)
		}
	}
	if f.comp = c; c != nil {
		c.bound++
	}
}

// bfsLocked appends to buf the connected component containing seed —
// flows transitively linked through shared resources — in discovery
// order, epoch-stamping flows and resources so each is visited once per
// flush. Caller holds Net.mu.
func (n *Net) bfsLocked(seed *flow, buf []*flow) []*flow {
	seed.epoch = n.epoch
	buf = append(buf, seed)
	for i := 0; i < len(buf); i++ {
		for _, rr := range buf[i].refs() {
			r := rr.r
			if r.epoch == n.epoch {
				continue
			}
			r.epoch = n.epoch
			for _, e := range r.flows {
				if e.f.epoch != n.epoch {
					e.f.epoch = n.epoch
					buf = append(buf, e.f)
				}
			}
		}
	}
	return buf
}

// componentLocked returns the record of seed's connected component with
// every member flow stamped visited for this flush. A live record is
// the steady state (a window tick changes no membership): no BFS, no
// sort, no flatten. Otherwise the component is gathered, put in
// canonical seq order and bound to a recycled record. Caller holds
// Net.mu.
func (n *Net) componentLocked(seed *flow) *component {
	if c := seed.comp; c != nil && !c.stale {
		n.compHits++
		for _, f := range c.flows {
			f.epoch = n.epoch
		}
		return c
	}
	var c *component
	if k := len(n.compFree); k > 0 {
		c, n.compFree = n.compFree[k-1], n.compFree[:k-1]
		c.stale, c.flat = false, false
	} else {
		c = &component{}
	}
	c.flows = n.bfsLocked(seed, c.flows[:0])
	sortFlowsBySeq(c.flows)
	for _, f := range c.flows {
		n.bindLocked(f, c)
	}
	return c
}

// soloRate is the closed-form rate of a flow alone on all its resources
// (its component has no other member): min(windowCap, capacity/weight),
// no progressive filling needed. Long single transfers re-allocate on
// every per-RTT window event, so this carries the bulk of their passes.
func soloRate(f *flow) float64 {
	rate := f.windowCap
	for _, rr := range f.refs() {
		if r := rr.r.effective() / rr.w; r < rate {
			rate = r
		}
	}
	if math.IsInf(rate, 1) {
		rate = loopbackBps
	}
	return rate
}

// reallocComponentLocked re-runs the progressive-filling allocator on
// exactly the flows of seed's connected component.
func (n *Net) reallocComponentLocked(seed *flow, now time.Duration) {
	c := n.componentLocked(seed)
	comp := c.flows
	n.allocPasses++
	n.allocFlows += uint64(len(comp))
	if n.rec != nil {
		n.rec.AllocPass(int64(now), int64(len(comp)), int64(n.allocPasses))
	}
	at := n.flushOrder()
	if len(comp) == 1 {
		f := comp[0]
		f.fold(now)
		if f.growAt <= now {
			f.growTo(now, at)
		}
		f.setRate(now, soloRate(f))
		return
	}
	for _, f := range comp {
		f.fold(now)
		if f.growAt <= now {
			f.growTo(now, at)
		}
	}
	rates := n.scr.alloc(c, n.nextResID)
	for i, f := range comp {
		f.setRate(now, rates[i])
	}
}

// flushOrder places a flush against the growth ticks due at its
// instant: the end-of-instant flush runs after all of them; a read path
// that flushes mid-instant cannot tell.
func (n *Net) flushOrder() tickOrder {
	if n.inFlush {
		return tickBefore
	}
	return tickUnknown
}

// stampLocked stamps an event being scheduled now (see flow.lossSet).
func (n *Net) stampLocked() stamp {
	return stamp{n.clk.Elapsed(), n.inFlush}
}

// GrowthStats reports how many per-RTT growth ticks flows that were not
// window-limited skipped (applied when their window was read instead),
// how many times such a flow woke and re-armed its tick, and how many
// times a reader landed on a skipped tick's own instant in an order the
// per-tick schedule cannot decide (DESIGN §11). A nonzero tie count
// means the run may differ from the per-tick one.
func (n *Net) GrowthStats() (skipped, wakes, ties uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.growSkipped, n.growWakes, n.growTies
}

// AllocStats reports how many component allocation passes the incremental
// allocator has run and how many flows those passes visited in total —
// the work the full recompute-everything path would have multiplied by
// the entire active-flow count.
func (n *Net) AllocStats() (passes, flowsVisited uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.allocPasses, n.allocFlows
}

// SetVerifyAllocations enables a differential cross-check: after every
// incremental flush the reference full allocator runs over all active
// flows, and any divergence beyond floating-point tolerance panics. Used
// by tests; far too slow for production runs.
func (n *Net) SetVerifyAllocations(v bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.verifyAllocs = v
}

// verifyAllocationsLocked compares every active flow's incremental rate
// against the reference allocator's.
func (n *Net) verifyAllocationsLocked() {
	fs := n.activeFlowsLocked()
	now, at := n.clk.Elapsed(), n.flushOrder()
	for _, f := range fs {
		f.growTo(now, at)
	}
	// The reference allocate call reuses the scratch rates buffer, which
	// is safe here because all incremental passes have already consumed
	// their results into f.rate.
	rates := n.allocate(fs)
	for i, f := range fs {
		want, got := rates[i], f.rate
		tol := 1e-6*math.Max(math.Abs(want), math.Abs(got)) + 1e-3
		if math.Abs(want-got) > tol {
			panic(fmt.Sprintf("simnet: incremental allocation diverged for flow %s->%s: got %v, reference %v",
				flowEndName(f.src), flowEndName(f.dst), got, want))
		}
	}
}

func flowEndName(h *Host) string {
	if h == nil {
		return "?"
	}
	return h.name
}

// sortFlowsBySeq orders flows by creation stamp — the canonical
// allocation order. Allocation-free (pdqsort on a captureless closure).
func sortFlowsBySeq(fs []*flow) {
	slices.SortFunc(fs, func(a, b *flow) int {
		switch {
		case a.seq < b.seq:
			return -1
		case a.seq > b.seq:
			return 1
		}
		return 0
	})
}

// sortResByID orders resources by their dense creation-order ids.
func sortResByID(rs []*res) {
	slices.SortFunc(rs, func(a, b *res) int { return a.id - b.id })
}
