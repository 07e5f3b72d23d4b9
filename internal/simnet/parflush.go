package simnet

import "time"

// Parallel end-of-instant flush.
//
// Max-min allocation decomposes exactly over connected components of the
// resource-sharing graph (alloc.go), and the flush already re-allocates
// one component at a time. This file fans those per-component passes out
// to the clock's worker pool (vtime.Fan): the gather (componentLocked,
// the same one the sequential flush calls) stays serial under Net.mu,
// the pure compute — folding transmission progress and
// running the water-filling kernel on each component's private
// allocScratch — runs on parallel lanes, and every observable effect is
// applied afterwards by the advancing goroutine in canonical component
// order. "Canonical" means dirty-seed discovery order, which is itself
// a deterministic function of the event sequence, so the rate
// applications, completion/loss timer (re)schedules, RNG draws, flight
// records and counter increments happen in exactly the order the
// sequential flush would produce them — the event stream, logs and
// dumps stay byte-identical for equal seeds at any worker count.
//
// The fan tasks are effect-free by construction: a task reads only
// state frozen for the instant (membership edges, window caps, resource
// capacities — the simulator is quiescent and the advancing goroutine
// is the one waiting on the barrier) and writes only flow-local fold
// counters and disjoint slices of the shared rate buffer. Tasks never
// touch the clock, the RNG, the logger or the recorder.
//
// Conservative merge: instants that change the component structure
// itself — flow attach/detach (dials, completions, disk rebinding),
// host crashes, anything that bumps the membership generation — set
// parUnsafe, and that flush runs the plain sequential path. Splitting
// or joining components is only observable at a flush boundary, so
// handling structural instants sequentially keeps the parallel path's
// frozen-input assumption trivially true. Differential-verification
// mode forces sequential likewise.

// parMinFlows is the minimum number of gathered flows worth a fan;
// below it the gathered components run inline on lane 0 (counted in
// seqFlushes), since waking workers costs more than the passes.
const parMinFlows = 8

// parRunner adapts the Net's per-component task into a vtime.Runner
// without a per-flush closure allocation (New wires parRun.n).
type parRunner struct{ n *Net }

// RunTask computes rates for gathered component task on worker lane
// worker. Effect-free: folds are flow-local, results land in the
// task's disjoint parRates window, and the lane's own allocScratch
// absorbs all allocator state.
//
//esglint:hotpath parallel-flush worker body; every component rate solve runs here
func (pr *parRunner) RunTask(task, worker int) {
	n := pr.n
	c := n.parRecs[task]
	lo := n.parComps[task]
	now := n.parNow
	for _, f := range c.flows {
		f.fold(now)
	}
	if len(c.flows) == 1 {
		n.parRates[lo] = soloRate(c.flows[0])
		return
	}
	copy(n.parRates[lo:], n.parScr[worker].alloc(c, n.nextResID))
}

// markStructuralLocked latches a component-structure change for the
// current instant: the next flush takes the conservative sequential
// path. Caller holds Net.mu.
func (n *Net) markStructuralLocked() { n.parUnsafe = true }

// tryParallelFlushLocked runs the gather / fan / merge flush when the
// instant qualifies; it reports false (having consumed nothing) when
// the flush must take the sequential path. Caller holds Net.mu and has
// already bumped the visit epoch.
//
//esglint:hotpath gather/fan/merge for every dirty flush instant, the highest-frequency path in simnet
func (n *Net) tryParallelFlushLocked(now time.Duration) bool {
	w := n.clk.Workers()
	if w < 2 {
		return false
	}
	if n.parUnsafe || n.verifyAllocs {
		n.consFlushes++
		return false
	}

	// Serial gather, in the sequential flush's dirty-seed order.
	n.parComps, n.parRecs = n.parComps[:0], n.parRecs[:0]
	nflows := 0
	for _, f := range n.dirtyFlows {
		f.dirty = false
		if f.removed || !f.active || f.epoch == n.epoch {
			continue
		}
		nflows = n.parGatherLocked(f, nflows)
	}
	for _, r := range n.dirtyRes {
		r.dirty = false
		for _, e := range r.flows {
			if e.f.epoch != n.epoch {
				nflows = n.parGatherLocked(e.f, nflows)
			}
		}
	}
	comps := n.parComps
	ncomp := len(comps)
	if ncomp == 0 {
		return true // all seeds were stale; nothing to do
	}
	if cap(n.parRates) < nflows {
		n.parRates = make([]float64, nflows)
	}
	n.parRates = n.parRates[:nflows]
	for len(n.parScr) < w {
		//esglint:hotpath parScr grows to the worker count once, then is reused for the life of the Net
		n.parScr = append(n.parScr, &allocScratch{})
	}
	n.parNow = now

	// Parallel compute — or inline on lane 0 when the batch is too small
	// or has no cross-lane parallelism to exploit.
	if ncomp >= 2 && nflows >= parMinFlows {
		n.parFlushes++
		//esglint:hotpath &parRun points into long-lived Net state; boxing a pointer fills the interface word without allocating
		n.clk.Fan(ncomp, &n.parRun)
	} else {
		n.seqFlushes++
		for t := 0; t < ncomp; t++ {
			n.parRun.RunTask(t, 0)
		}
	}

	// Canonical merge: all observable effects, in discovery order — the
	// same (record, rate application, timer, RNG) sequence per component
	// the sequential flush produces.
	for t, c := range n.parRecs {
		n.allocPasses++
		n.allocFlows += uint64(len(c.flows))
		if n.rec != nil {
			n.rec.AllocPass(int64(now), int64(len(c.flows)), int64(n.allocPasses))
		}
		for i, f := range c.flows {
			f.setRate(now, n.parRates[int(comps[t])+i])
		}
	}
	return true
}

// parGatherLocked queues seed's component as the next fan task, its
// rates to land at offset lo of the flat rate buffer, and returns the
// offset after it.
//
//esglint:hotpath one call per dirty component of every fanned flush
func (n *Net) parGatherLocked(seed *flow, lo int) int {
	c := n.componentLocked(seed)
	//esglint:hotpath parComps and parRecs grow only to the component-count high-water mark, then never again
	n.parComps, n.parRecs = append(n.parComps, int32(lo)), append(n.parRecs, c)
	return lo + len(c.flows)
}

// ParStats reports how flushes have executed since the Net was created:
// parallel fans, conservative sequential flushes forced by a structural
// change (or verification mode) while workers were enabled, and
// below-threshold flushes that ran inline. With workers disabled all
// three stay zero — the plain sequential flush path does not count.
func (n *Net) ParStats() (parallel, conservative, inline uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.parFlushes, n.consFlushes, n.seqFlushes
}
