package netlogger

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// sketchSamples draws a deterministic latency population spanning the
// histogram's range: microseconds to minutes, heavy-tailed.
func sketchSamples(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = 1e-6 * (1 + rng.ExpFloat64()*1e6*rng.Float64())
	}
	return out
}

func histOf(vals []float64) *LogHistogram {
	h := NewLogHistogram()
	for _, v := range vals {
		h.Observe(v)
	}
	return h
}

func encode(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestHistSnapshotMergeOfSnapshotsEqualsSnapshotOfUnion(t *testing.T) {
	vals := sketchSamples(7, 3000)
	parts := [][]float64{vals[:500], vals[500:1700], vals[1700:]}
	var merged HistSnapshot
	for _, p := range parts {
		merged = merged.Merge(histOf(p).Snapshot())
	}
	union := histOf(vals).Snapshot()
	if !reflect.DeepEqual(merged, union) {
		t.Fatalf("merge of part snapshots != snapshot of union:\n%+v\n%+v", merged, union)
	}
}

func TestHistSnapshotMergeAssociativeCommutative(t *testing.T) {
	vals := sketchSamples(11, 2400)
	a := histOf(vals[:800]).Snapshot()
	b := histOf(vals[800:1600]).Snapshot()
	c := histOf(vals[1600:]).Snapshot()

	ab_c := a.Merge(b).Merge(c)
	a_bc := a.Merge(b.Merge(c))
	cba := c.Merge(b).Merge(a)
	if !reflect.DeepEqual(ab_c, a_bc) {
		t.Fatalf("associativity: (a⊕b)⊕c != a⊕(b⊕c)")
	}
	if string(encode(t, ab_c)) != string(encode(t, cba)) {
		t.Fatalf("commutativity: fold order changed encoded bytes")
	}
	// Zero snapshot is the identity on both sides.
	if !reflect.DeepEqual(a.Merge(HistSnapshot{}), a) || !reflect.DeepEqual(HistSnapshot{}.Merge(a), a) {
		t.Fatalf("zero snapshot is not a merge identity")
	}
}

func TestHistSnapshotQuantilesMatchLiveHistogram(t *testing.T) {
	vals := sketchSamples(13, 5000)
	h := histOf(vals)
	s := h.Snapshot()
	// The snapshot lives in the integer-nanosecond domain, so extremes
	// may truncate by under 1 ns relative to the live float view.
	const ns = 1e-9
	live, snap := h.Tail(), s.Tail()
	near := func(a, b float64) bool { return b >= a-ns && b <= a+ns }
	if !near(live.P50, snap.P50) || !near(live.P99, snap.P99) || !near(live.P999, snap.P999) {
		t.Errorf("live tail %+v != snapshot tail %+v", live, snap)
	}
	if live.N != snap.N || !near(live.Max, snap.Max) {
		t.Errorf("count/max mismatch: live (%d,%g) snapshot (%d,%g)", live.N, live.Max, snap.N, snap.Max)
	}
}

func TestGaugeSummaryMerge(t *testing.T) {
	var g1, g2 Gauge
	g1.Set(3)
	g1.Add(2) // 5; min 3 max 5
	g2.Set(10)
	g2.Add(-9) // 1; min 1 max 10
	a, b := g1.Summary(), g2.Summary()
	m := a.Merge(b)
	if m.Last != 6 || m.Min != 1 || m.Max != 10 || m.N != 4 || m.Sum != 19 {
		t.Fatalf("merge = %+v", m)
	}
	if !reflect.DeepEqual(a.Merge(b), b.Merge(a)) {
		t.Fatalf("gauge merge not commutative")
	}
	if !reflect.DeepEqual(a.Merge(GaugeSummary{}), a) {
		t.Fatalf("zero gauge summary is not identity")
	}
}

func TestRegistryMergeableSortedAndComplete(t *testing.T) {
	r := NewRegistry(nil)
	r.Counter("z.bytes").Add(42)
	r.Counter("a.bytes").Add(1)
	r.Gauge("m.flows").Set(2)
	r.LogHist("stage.retr").ObserveDuration(250 * time.Millisecond)
	s := r.Mergeable()
	if len(s.Counters) != 2 || s.Counters[0].Name != "a.bytes" || s.Counters[1].Name != "z.bytes" {
		t.Fatalf("counters = %+v", s.Counters)
	}
	if len(s.Gauges) != 1 || s.Gauges[0].G.Last != 2 {
		t.Fatalf("gauges = %+v", s.Gauges)
	}
	if len(s.Hists) != 1 || s.Hists[0].H.N != 1 {
		t.Fatalf("hists = %+v", s.Hists)
	}
	var nr *Registry
	if got := nr.Mergeable(); len(got.Counters)+len(got.Gauges)+len(got.Hists) != 0 {
		t.Fatalf("nil registry mergeable = %+v", got)
	}
}

func TestLogBucketDistance(t *testing.T) {
	if d := LogBucketDistance(1.0, 1.0); d != 0 {
		t.Errorf("equal values %d buckets apart", d)
	}
	// ~3% resolution: values within a sub-bucket are 0-1 apart, a 2x
	// gap is a full octave (32 sub-buckets) apart.
	if d := LogBucketDistance(1.0, 1.01); d > 1 {
		t.Errorf("1%% apart values %d buckets apart", d)
	}
	if d := LogBucketDistance(1.0, 2.0); d != 32 {
		t.Errorf("2x apart values %d buckets apart, want 32", d)
	}
}
