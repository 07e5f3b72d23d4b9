package netlogger

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestLogHistQuantiles(t *testing.T) {
	h := NewLogHistogram()
	if h.Tail() != (Tail{}) || h.Count() != 0 {
		t.Fatal("empty histogram not zero")
	}
	// 1000 observations: 900 fast (10ms), 90 slow (2s), 10 very slow (30s):
	// exactly the shape whose p999 a mean (or a coarse digest) hides.
	for i := 0; i < 900; i++ {
		h.Observe(0.010)
	}
	for i := 0; i < 90; i++ {
		h.ObserveDuration(2 * time.Second)
	}
	for i := 0; i < 10; i++ {
		h.Observe(30.0)
	}
	if h.Count() != 1000 {
		t.Fatalf("Count = %d", h.Count())
	}
	tail := h.Tail()
	check := func(q string, got, want float64) {
		t.Helper()
		if got < want || got > want*1.04 { // upper bound within ~3% bucket error
			t.Fatalf("%s = %v, want [%v, %v]", q, got, want, want*1.04)
		}
	}
	check("p50", tail.P50, 0.010)
	check("p99", tail.P99, 2.0)
	check("p999", tail.P999, 30.0)
	if tail.N != 1000 || tail.Max != 30.0 {
		t.Fatalf("Tail = %+v", tail)
	}
	if got := h.Snapshot().Quantile(1); got != 30.0 {
		t.Fatalf("Quantile(1) = %v, want max", got)
	}
	for _, want := range []string{"n=1000", "p50=", "p999="} {
		if !strings.Contains(tail.String(), want) {
			t.Fatalf("Tail.String() missing %q: %s", want, tail)
		}
	}
	// Out-of-range inputs clamp rather than panic.
	h.Observe(-5)
	h.Observe(1e12) // beyond the int64-ns range
	s := h.Snapshot()
	if got := s.Quantile(0); got != 0 {
		t.Fatalf("negative observation: Quantile(0) = %v, want 0", got)
	}
	if got, q0 := s.Quantile(-1), s.Quantile(0); got != q0 {
		t.Fatalf("Quantile(-1) = %v, want clamp to Quantile(0) = %v", got, q0)
	}
	if got := s.Quantile(2); got != s.Max() {
		t.Fatalf("Quantile(2) = %v, want max", got)
	}
}

// TestLogHistBucketMath verifies the bucket mapping is monotone, covers
// the full range, and bounds relative error by 1/32 per bucket.
func TestLogHistBucketMath(t *testing.T) {
	prev := -1
	for _, ns := range []uint64{0, 1, 31, 32, 33, 63, 64, 100, 1023, 1024,
		1e6, 1e9, 1e12, 1e15, 1 << 62, 1<<63 - 1} {
		idx := hdrBucketOf(ns)
		if idx < prev {
			t.Fatalf("bucket index not monotone at ns=%d: %d < %d", ns, idx, prev)
		}
		prev = idx
		if idx < 0 || idx >= hdrBuckets {
			t.Fatalf("ns=%d maps out of range: %d", ns, idx)
		}
		hi := hdrUpperBound(idx)
		if hi < ns {
			t.Fatalf("upper bound %d below value %d (idx %d)", hi, ns, idx)
		}
		if ns >= hdrSubCount {
			if rel := float64(hi-ns) / float64(ns); rel > 1.0/hdrSubCount {
				t.Fatalf("ns=%d: bucket error %.4f exceeds 1/%d", ns, rel, hdrSubCount)
			}
		} else if hi != ns {
			t.Fatalf("small value %d not exact: upper %d", ns, hi)
		}
	}
	// Exhaustive upper-bound consistency: every bucket's upper edge maps
	// back to the same bucket, and +1 maps to the next.
	for idx := 0; idx < hdrBuckets-1; idx++ {
		hi := hdrUpperBound(idx)
		if hdrBucketOf(hi) != idx {
			t.Fatalf("upper bound of bucket %d maps to %d", idx, hdrBucketOf(hi))
		}
		if hdrBucketOf(hi+1) != idx+1 {
			t.Fatalf("bucket %d upper+1 maps to %d, want %d", idx, hdrBucketOf(hi+1), idx+1)
		}
	}
}

func TestLogHistDeterminism(t *testing.T) {
	mk := func() *LogHistogram {
		h := NewLogHistogram()
		for i := 0; i < 1000; i++ {
			h.Observe(float64(i%37) * 0.013)
		}
		return h
	}
	a, b := mk(), mk()
	if !reflect.DeepEqual(a.Snapshot(), b.Snapshot()) || a.Tail() != b.Tail() {
		t.Fatal("identical histograms differ")
	}
}

// TestLogHistObserveAllocFree pins the transfer-latency record path at
// zero allocations: the histogram is on the completion path of every
// simulated transfer.
func TestLogHistObserveAllocFree(t *testing.T) {
	h := NewLogHistogram()
	h.Observe(0.5)
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(0.123)
	})
	if allocs > 0 {
		t.Errorf("LogHistogram.Observe allocates %.1f objects per call, want 0", allocs)
	}
}

func TestLogHistNilSafe(t *testing.T) {
	var h *LogHistogram
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if h.Count() != 0 || h.Tail() != (Tail{}) {
		t.Fatal("nil histogram methods must no-op")
	}
	var r *Registry
	if r.LogHist("x") != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
}

func TestRegistryLogHist(t *testing.T) {
	reg := NewRegistry(nil)
	h := reg.LogHist("rm.transfer.latency")
	if h == nil || reg.LogHist("rm.transfer.latency") != h {
		t.Fatal("LogHist must create once and share by name")
	}
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 0.01)
	}
	var row string
	for _, line := range strings.Split(reg.Render(), "\n") {
		if strings.HasPrefix(line, "rm.transfer.latency ") {
			row = line
		}
	}
	if !strings.Contains(row, "loghist") || !strings.Contains(row, "p999=") {
		t.Fatalf("rendered row malformed: %q", row)
	}
}
