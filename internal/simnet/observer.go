package simnet

import (
	"cmp"
	"math"
	"slices"
	"time"
)

// FlushObserver, when non-nil, is called at the end of every allocation
// flush with a fingerprint of the canonical post-flush flow state: an
// FNV-1a fold over every active flow's (seq, rate, transmitted,
// windowCap, lastT) in creation order. Two runs whose observer streams
// match are bitwise-equivalent at every allocation boundary — a far
// sharper differential signal than comparing end-of-run metrics, since
// the first mismatching flush localizes a divergence to the instant it
// was introduced.
//
// Test instrumentation only: the hook is package-global, is read without
// synchronization on the flush path, and the fingerprint walk is O(active
// flows) per flush. Install it before the simulation starts, from a
// single test at a time, and reset it to nil afterwards. The walk keeps
// its own list of active flows in creation order, so it neither visits
// idle connections nor sorts per flush; a Net that no observer has seen
// flush pays one flag test per flow activation.
var FlushObserver func(now time.Duration, sig uint64, nflows int)

// observeFlushLocked fingerprints the active flow set for FlushObserver.
func (n *Net) observeFlushLocked(now time.Duration) {
	if FlushObserver == nil {
		return
	}
	const (
		offset64 = 1469598103934665603
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		h ^= v
		h *= prime64
	}
	if n.observing {
		n.observed = slices.DeleteFunc(n.observed, func(f *flow) bool { return !f.active || f.removed })
	} else {
		n.observed = append(n.observed, n.activeFlowsLocked()...)
		n.observing = true
	}
	fs := n.observed
	at := n.flushOrder()
	for _, f := range fs {
		f.growTo(now, at)
		mix(f.seq)
		mix(math.Float64bits(f.rate))
		mix(math.Float64bits(f.transmitted))
		mix(math.Float64bits(f.windowCap))
		mix(uint64(f.lastT))
	}
	FlushObserver(now, h, len(fs))
}

// observeActivationLocked enters a newly active flow into the observed
// list at its creation-order place; a flow that went idle and came back
// before a flush dropped it is there already.
func (n *Net) observeActivationLocked(f *flow) {
	i, found := slices.BinarySearchFunc(n.observed, f.seq, func(g *flow, seq uint64) int {
		return cmp.Compare(g.seq, seq)
	})
	if !found {
		n.observed = slices.Insert(n.observed, i, f)
	}
}
