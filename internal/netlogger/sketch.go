// Mergeable sketch snapshots: the wire form of the metrics registry's
// instruments. A telemetry tier folds child snapshots with Merge and
// re-exports the result — the fold is exact, not approximated twice,
// because a LogHistogram snapshot carries its raw bucket counts and the
// other instruments reduce to sums and extrema.
//
// Determinism contract: every accumulated field is an integer (bucket
// counts, observation counts, nanosecond sums/extrema) or a float64
// whose increments are integral in this codebase (byte counters, flow
// gauges). Integer addition is associative and commutative, and float64
// addition is exact on integers below 2^53 — so folding a set of
// snapshots yields bit-identical results in any association and any
// order. The telemetry plane's permuted-fold property tests pin this.
package netlogger

// BucketCount is one occupied log-histogram bucket.
type BucketCount struct {
	Idx int32 `json:"i"`
	N   int64 `json:"n"`
}

// HistSnapshot is the mergeable form of a LogHistogram: the occupied
// buckets (sorted by index) plus integer-nanosecond aggregates. The
// zero value is an empty snapshot and a valid Merge identity.
type HistSnapshot struct {
	N       int64         `json:"count"`
	SumNs   int64         `json:"sum_ns"`
	MinNs   int64         `json:"min_ns"`
	MaxNs   int64         `json:"max_ns"`
	Buckets []BucketCount `json:"buckets"`
}

// Snapshot captures the histogram's current state. The result shares no
// storage with the live histogram.
func (h *LogHistogram) Snapshot() HistSnapshot {
	s, _ := h.snapshot()
	return s
}

// snapshot returns the histogram's snapshot and its float max, read
// under one lock.
func (h *LogHistogram) snapshot() (s HistSnapshot, top float64) {
	if h == nil {
		return HistSnapshot{}, 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s = HistSnapshot{N: h.n, SumNs: h.sumNs, MinNs: h.minNs, MaxNs: h.maxNs}
	for i, c := range h.counts {
		if c != 0 {
			s.Buckets = append(s.Buckets, BucketCount{Idx: int32(i), N: c})
		}
	}
	return s, h.max
}

// Merge returns the snapshot of the union of the two observation sets.
// It is associative, commutative, and has the zero snapshot as
// identity; all arithmetic is integral, so any fold tree over the same
// multiset of snapshots produces bit-identical bytes. The result shares
// no storage with s or o.
func (s HistSnapshot) Merge(o HistSnapshot) HistSnapshot {
	if o.N != 0 {
		if s.N == 0 {
			s.MinNs, s.MaxNs = o.MinNs, o.MaxNs
		} else {
			if o.MinNs < s.MinNs {
				s.MinNs = o.MinNs
			}
			if o.MaxNs > s.MaxNs {
				s.MaxNs = o.MaxNs
			}
		}
		s.N += o.N
		s.SumNs += o.SumNs
	}
	s.Buckets = mergeBuckets(s.Buckets, o.Buckets)
	return s
}

// mergeBuckets merges two Idx-sorted runs into a fresh slice.
func mergeBuckets(a, b []BucketCount) []BucketCount {
	var dst []BucketCount
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Idx < b[j].Idx:
			dst = append(dst, a[i])
			i++
		case a[i].Idx > b[j].Idx:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, BucketCount{Idx: a[i].Idx, N: a[i].N + b[j].N})
			i, j = i+1, j+1
		}
	}
	dst = append(dst, a[i:]...)
	dst = append(dst, b[j:]...)
	return dst
}

// Max returns the observed maximum in seconds.
func (s HistSnapshot) Max() float64 { return float64(s.MaxNs) / 1e9 }

// Quantile returns an upper bound on the q-th quantile (q in [0,1]):
// the upper edge of the bucket holding that rank, clamped to the
// observed max — within ~3% of the true value by construction.
func (s HistSnapshot) Quantile(q float64) float64 { return s.quantile(q, s.Max()) }

// quantile is the one quantile walk: the upper edge of the bucket
// holding the q-th ranked observation, clamped to top, the observed max.
// The highest occupied bucket answers top itself, its true upper edge.
func (s HistSnapshot) quantile(q, top float64) float64 {
	if s.N == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(s.N-1))
	var seen int64
	for k, b := range s.Buckets {
		seen += b.N
		if seen > rank {
			if k == len(s.Buckets)-1 {
				return top
			}
			hi := float64(hdrUpperBound(int(b.Idx))) / 1e9
			if hi > top {
				hi = top
			}
			return hi
		}
	}
	return top
}

// Tail snapshots the standard report quantiles.
func (s HistSnapshot) Tail() Tail { return s.tail(s.Max()) }

func (s HistSnapshot) tail(top float64) Tail {
	return Tail{
		N:    s.N,
		P50:  s.quantile(0.50, top),
		P99:  s.quantile(0.99, top),
		P999: s.quantile(0.999, top),
		Max:  top,
	}
}

// LogBucketDistance returns how many log-histogram buckets apart two
// latencies (seconds) land — 0 means the sketch resolves them as equal.
// The S16 acceptance bound ("grid quantiles within one log-bucket of
// the flat-stream ground truth") is stated in this metric.
func LogBucketDistance(a, b float64) int {
	ia, ib := hdrBucketOf(clampNs(a)), hdrBucketOf(clampNs(b))
	if ia > ib {
		return ia - ib
	}
	return ib - ia
}

// GaugeSummary is the mergeable form of a Gauge. Last folds by
// summation: the grid-level "current level" of a distributed gauge
// (active flows, queue depths) is the sum of the per-host levels.
type GaugeSummary struct {
	Last float64 `json:"last"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	Sum  float64 `json:"sum"`
	N    int64   `json:"count"`
}

// Merge combines two gauge summaries (associative, commutative, zero
// identity — exact for integral-valued gauges).
func (g GaugeSummary) Merge(o GaugeSummary) GaugeSummary {
	if o.N == 0 {
		return g
	}
	if g.N == 0 {
		g.Min, g.Max = o.Min, o.Max
	} else {
		if o.Min < g.Min {
			g.Min = o.Min
		}
		if o.Max > g.Max {
			g.Max = o.Max
		}
	}
	g.Last += o.Last
	g.Sum += o.Sum
	g.N += o.N
	return g
}

// Summary captures the gauge's mergeable state.
func (g *Gauge) Summary() GaugeSummary {
	if g == nil {
		return GaugeSummary{}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return GaugeSummary{Last: g.v, Min: g.min, Max: g.max, Sum: g.sum, N: g.n}
}

// NamedValue, NamedGauge, and NamedHist are name-keyed snapshot rows.
type NamedValue struct {
	Name string  `json:"name"`
	V    float64 `json:"v"`
}

type NamedGauge struct {
	Name string       `json:"name"`
	G    GaugeSummary `json:"g"`
}

type NamedHist struct {
	Name string       `json:"name"`
	H    HistSnapshot `json:"h"`
}

// RegistrySnapshot is the mergeable view of a whole registry: every
// instrument, sorted by name — the unit a telemetry leaf ships up the
// aggregation tree.
type RegistrySnapshot struct {
	Counters []NamedValue `json:"counters,omitempty"`
	Gauges   []NamedGauge `json:"gauges,omitempty"`
	Hists    []NamedHist  `json:"hists,omitempty"`
}

// Mergeable snapshots all instruments in sorted-name order.
func (r *Registry) Mergeable() RegistrySnapshot {
	var s RegistrySnapshot
	r.walk(func(name string, inst any) {
		switch inst := inst.(type) {
		case *Counter:
			s.Counters = append(s.Counters, NamedValue{Name: name, V: inst.Value()})
		case *Gauge:
			s.Gauges = append(s.Gauges, NamedGauge{Name: name, G: inst.Summary()})
		case *LogHistogram:
			s.Hists = append(s.Hists, NamedHist{Name: name, H: inst.Snapshot()})
		}
	})
	return s
}
