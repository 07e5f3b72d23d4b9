// LogHistogram: an HDR-style log-bucketed latency histogram. Values
// (seconds) are mapped to nanoseconds and bucketed by the top six
// significant bits — log2 major buckets subdivided into 32 linear
// sub-buckets — so any quantile, p50 through p999, is answered with a
// bounded ~3% relative error over the full range from 1 ns to decades,
// in constant memory, with a zero-allocation Observe. Unlike a sampling
// sketch the mapping is deterministic, which the equal-seed replay
// tests require; it replaces the coarse geometric digests (×1.25
// growth, ~25% bucket error) the monitor previously used for stage
// latencies, whose error swamped the p99/p999 distinctions the scale
// experiments report.
package netlogger

import (
	"fmt"
	"math/bits"
	"sync"
	"time"
)

const (
	hdrSubBits  = 5               // 32 linear sub-buckets per octave
	hdrSubCount = 1 << hdrSubBits // values below this index exactly
	hdrBuckets  = 32 * (64 - 5)   // max index for 63-bit ns + 1
)

// LogHistogram accumulates latency observations in seconds. The zero
// value is NOT ready to use — construct with NewLogHistogram (the
// bucket array is embedded, so sharing by value would tear counters).
type LogHistogram struct {
	mu     sync.Mutex
	counts [hdrBuckets]int64
	n      int64
	max    float64 // the observed max as given, which Tail reports
	// Integer-nanosecond aggregates, kept so Snapshot is all-integer and
	// tier folds are bit-exact in any merge order.
	sumNs int64
	minNs int64
	maxNs int64
}

// NewLogHistogram returns an empty histogram.
func NewLogHistogram() *LogHistogram { return &LogHistogram{} }

// hdrBucketOf maps a nanosecond value to its bucket index: identity for
// values under 32, then 32·e + (ns>>e) with e chosen so ns>>e lands in
// [32, 64) — the top six significant bits of the value.
func hdrBucketOf(ns uint64) int {
	if ns < hdrSubCount {
		return int(ns)
	}
	e := uint(bits.Len64(ns)) - hdrSubBits - 1
	return int(e)<<hdrSubBits + int(ns>>e)
}

// hdrUpperBound returns the largest nanosecond value mapping to bucket
// idx (the bucket's inclusive upper edge).
func hdrUpperBound(idx int) uint64 {
	if idx < hdrSubCount {
		return uint64(idx)
	}
	e := uint(idx>>hdrSubBits) - 1
	m := uint64(idx&(hdrSubCount-1)) + hdrSubCount
	return (m+1)<<e - 1
}

// clampNs maps a latency in seconds to the histogram's nanosecond
// domain: negatives clamp to 0, overflows to the 63-bit bucket range.
func clampNs(v float64) uint64 {
	ns := v * 1e9
	if ns < 0 {
		return 0
	}
	if ns >= float64(uint64(1)<<63) {
		return 1<<63 - 1
	}
	return uint64(ns)
}

// Observe records one latency in seconds (negatives clamp to 0). It
// performs no allocation and is safe for concurrent use.
func (h *LogHistogram) Observe(v float64) {
	if h == nil {
		return
	}
	un := clampNs(v)
	h.mu.Lock()
	h.counts[hdrBucketOf(un)]++
	if h.n == 0 || v > h.max {
		h.max = v
	}
	if h.n == 0 || int64(un) < h.minNs {
		h.minNs = int64(un)
	}
	if h.n == 0 || int64(un) > h.maxNs {
		h.maxNs = int64(un)
	}
	h.n++
	h.sumNs += int64(un)
	h.mu.Unlock()
}

// ObserveDuration records one latency.
func (h *LogHistogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *LogHistogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Tail bundles the tail-latency row the experiments report instead of
// means: p50/p99/p999 and the observed max, in seconds. The JSON keys
// are the stage rows' on the telemetry stream and in mon.snapshot.
type Tail struct {
	N    int64   `json:"count"`
	P50  float64 `json:"p50_s"`
	P99  float64 `json:"p99_s"`
	P999 float64 `json:"p999_s"`
	Max  float64 `json:"max_s"`
}

// Tail snapshots the standard report quantiles. They clamp to the
// observed max as given, not to its nanosecond truncation.
func (h *LogHistogram) Tail() Tail {
	s, top := h.snapshot()
	return s.tail(top)
}

// String renders the tail row ("n=… p50=… p99=… p999=… max=…", seconds).
func (t Tail) String() string {
	return fmt.Sprintf("n=%d p50=%.6g p99=%.6g p999=%.6g max=%.6g",
		t.N, t.P50, t.P99, t.P999, t.Max)
}

// LogHist returns (creating if needed) the named log histogram in the
// registry; it appears in Snapshot alongside the fixed-bucket kind.
func (r *Registry) LogHist(name string) *LogHistogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hlogs[name]
	if h == nil {
		h = NewLogHistogram()
		r.hlogs[name] = h
	}
	return h
}
