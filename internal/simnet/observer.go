package simnet

import (
	"math"
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
// single test at a time, and reset it to nil afterwards.
var FlushObserver func(now time.Duration, sig uint64, nflows int)

// observeFlushLocked fingerprints the active flow set for FlushObserver.
// Caller holds Net.mu.
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
	fs := n.activeFlowsLocked()
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
