package monitor

import (
	"testing"
	"time"
)

func TestRingEviction(t *testing.T) {
	r := NewRing(3)
	if r.Last() != 0 || r.Mean(0) != 0 {
		t.Fatal("empty ring not zero-valued")
	}
	for _, v := range []float64{1, 2, 3} {
		r.Push(v)
	}
	if got := r.Mean(0); got != 2 {
		t.Fatalf("Mean(all) of 1,2,3 = %v", got)
	}
	r.Push(4) // evicts 1
	if r.Last() != 4 {
		t.Fatalf("Last = %v", r.Last())
	}
	if got := r.Mean(5); got != 3 {
		t.Fatalf("Mean(5) over 2,3,4 = %v", got)
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
	if r.Last() != 9 || r.Mean(0) != 9 {
		t.Fatalf("capacity-1 ring: last=%v mean=%v", r.Last(), r.Mean(0))
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
