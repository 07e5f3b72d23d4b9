package monitor

// Ring is a fixed-capacity time series: pushes overwrite the oldest
// sample once the buffer is full. The monitor keeps one per tracked
// host (goodput) plus one for the global active-flow gauge, bounding
// memory no matter how long the plane runs.
type Ring struct {
	vals []float64
	head int // next write position
	n    int // samples stored (<= cap)
}

// NewRing returns a ring holding the last capacity samples (min 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{vals: make([]float64, capacity)}
}

// Push appends a sample, evicting the oldest when full.
func (r *Ring) Push(v float64) {
	r.vals[r.head] = v
	r.head = (r.head + 1) % len(r.vals)
	if r.n < len(r.vals) {
		r.n++
	}
}

// Last returns the most recent sample (0 when empty).
func (r *Ring) Last() float64 {
	if r.n == 0 {
		return 0
	}
	return r.vals[(r.head-1+len(r.vals))%len(r.vals)]
}

// Mean averages the last n samples (all held when n <= 0 or n exceeds
// them).
func (r *Ring) Mean(n int) float64 {
	if n <= 0 || n > r.n {
		n = r.n
	}
	if n == 0 {
		return 0
	}
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.vals[(r.head-1-i+len(r.vals)*2)%len(r.vals)]
	}
	return sum / float64(n)
}
