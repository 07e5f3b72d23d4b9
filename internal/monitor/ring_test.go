package monitor

import (
	"testing"
	"time"
)

func TestRingEviction(t *testing.T) {
	r := NewRing(3)
	if r.Len() != 0 || r.Last() != 0 || r.Mean(0) != 0 {
		t.Fatal("empty ring not zero-valued")
	}
	for _, v := range []float64{1, 2, 3} {
		r.Push(v)
	}
	if got := r.Values(); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("Values = %v", got)
	}
	r.Push(4) // evicts 1
	if got := r.Values(); len(got) != 3 || got[0] != 2 || got[2] != 4 {
		t.Fatalf("after eviction: %v", got)
	}
	if r.Last() != 4 || r.Len() != 3 {
		t.Fatalf("Last=%v Len=%d", r.Last(), r.Len())
	}
	if got := r.Mean(2); got != 3.5 {
		t.Fatalf("Mean(2) = %v", got)
	}
	if got := r.Mean(0); got != 3 {
		t.Fatalf("Mean(all) = %v", got)
	}
}

func TestRingMinCapacity(t *testing.T) {
	r := NewRing(0)
	r.Push(7)
	r.Push(9)
	if r.Len() != 1 || r.Last() != 9 {
		t.Fatalf("capacity-1 ring: len=%d last=%v", r.Len(), r.Last())
	}
}

func TestNextBoundaryEpochAligned(t *testing.T) {
	epoch := time.Date(2000, time.November, 6, 8, 0, 0, 0, time.UTC)
	tick := time.Second
	if got := nextBoundary(epoch, tick); !got.Equal(epoch.Add(time.Second)) {
		t.Fatalf("at epoch: %v", got)
	}
	at := epoch.Add(1500 * time.Millisecond)
	if got := nextBoundary(at, tick); !got.Equal(epoch.Add(2 * time.Second)) {
		t.Fatalf("mid-interval: %v", got)
	}
	// Exactly on a boundary → strictly the next one.
	at = epoch.Add(5 * time.Second)
	if got := nextBoundary(at, tick); !got.Equal(epoch.Add(6 * time.Second)) {
		t.Fatalf("on boundary: %v", got)
	}
}
