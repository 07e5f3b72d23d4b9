package telemetry

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"esgrid/internal/netlogger"
	"esgrid/internal/transport"
)

// hostSummary builds a deterministic single-host summary with the
// instrument shape every telemetry leaf reports: stage histograms, byte
// counters, a queue gauge.
func hostSummary(seed int64, ticks int) Summary {
	rng := rand.New(rand.NewSource(seed))
	reg := netlogger.NewRegistry(nil)
	for i := 0; i < ticks; i++ {
		reg.LogHist("stage.retr").Observe(0.02 + rng.Float64()*2)
		reg.LogHist("stage.stor").Observe(0.01 + rng.ExpFloat64()*0.5)
		reg.Counter("bytes.total").Add(float64(1_000_000 + rng.Intn(500_000)))
		reg.Gauge("queue.depth").Set(float64(rng.Intn(16)))
	}
	return Summary{Tick: 7, Hosts: 1, RegistrySnapshot: reg.Mergeable()}
}

func encJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMergeLaws(t *testing.T) {
	a, b, c := hostSummary(1, 40), hostSummary(2, 40), hostSummary(3, 40)
	abc1 := Merge(Merge(a, b), c)
	abc2 := Merge(a, Merge(b, c))
	cba := Merge(Merge(c, b), a)
	if !bytes.Equal(encJSON(t, abc1), encJSON(t, abc2)) {
		t.Fatal("merge is not associative")
	}
	if !bytes.Equal(encJSON(t, abc1), encJSON(t, cba)) {
		t.Fatal("merge is not commutative")
	}
	if id := Merge(a, Summary{}); !bytes.Equal(encJSON(t, id), encJSON(t, a)) {
		t.Fatal("zero summary is not a merge identity")
	}
	if got := Merge(a, b).Hosts; got != 2 {
		t.Fatalf("hosts fold = %d, want 2", got)
	}
}

// TestMergeFoldUnderPermutation is the tree's determinism keystone:
// folding any permutation of the same children, one at a time as an
// aggregator does, yields byte-identical encodings.
func TestMergeFoldUnderPermutation(t *testing.T) {
	children := make([]Summary, 12)
	for i := range children {
		children[i] = hostSummary(int64(10+i), 30)
	}
	ref := Summary{}
	for _, c := range children {
		ref = Merge(ref, c)
	}
	want := encJSON(t, ref)

	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		var sum Summary
		for _, i := range rng.Perm(len(children)) {
			sum = Merge(sum, children[i])
		}
		if got := encJSON(t, sum); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: permuted fold diverged:\n%s\n%s", trial, got, want)
		}
	}
}

// TestMergeDisjointInstruments folds children with disjoint and
// overlapping instrument sets: shared rows add, the rest pass through.
func TestMergeDisjointInstruments(t *testing.T) {
	regA := netlogger.NewRegistry(nil)
	regA.Counter("a.only").Add(3)
	regA.LogHist("stage.retr").Observe(0.5)
	regB := netlogger.NewRegistry(nil)
	regB.Counter("b.only").Add(4)
	regB.Counter("a.only").Add(2)
	regB.Gauge("q").Set(1)
	a := Summary{Tick: 1, Hosts: 1, RegistrySnapshot: regA.Mergeable()}
	b := Summary{Tick: 1, Hosts: 1, RegistrySnapshot: regB.Mergeable()}

	sum := Merge(Merge(Summary{}, a), b)
	if !bytes.Equal(encJSON(t, sum), encJSON(t, Merge(Merge(Summary{}, b), a))) {
		t.Fatalf("disjoint fold depends on order: %+v", sum)
	}
	if sum.Counter("a.only") != 5 || sum.Counter("b.only") != 4 {
		t.Fatalf("counters = %+v", sum.Counters)
	}
	if len(sum.Gauges) != 1 || sum.Gauges[0].Name != "q" {
		t.Fatalf("gauges = %+v", sum.Gauges)
	}
	if h, ok := sum.Hist("stage.retr"); !ok || h.N != 1 {
		t.Fatalf("stage.retr = %+v, %v", h, ok)
	}
	if sum.Tick != 1 || sum.Hosts != 2 {
		t.Fatalf("tick/hosts = %d/%d", sum.Tick, sum.Hosts)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	f := Frame{
		Node: "site:ncar", Tick: 42,
		Sum: hostSummary(5, 25),
		Sites: []SiteRow{{
			Site: "ncar", Hosts: 8, GoodputBps: 1e8, StageP999s: 1.25, Status: "ok",
		}},
	}
	wire, err := EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	// The plane reads frames with transport's framing.
	r := bytes.NewReader(wire)
	var got Frame
	if err := transport.ReadJSON(r, &got); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Fatalf("%d of %d wire bytes left unread", r.Len(), len(wire))
	}
	if !reflect.DeepEqual(got, f) {
		t.Fatalf("round trip:\n%+v\n%+v", got, f)
	}
	if err := transport.ReadJSON(bytes.NewReader(wire[:len(wire)-3]), &got); err == nil {
		t.Fatal("truncated frame decoded")
	}
}

func TestSummaryAccessors(t *testing.T) {
	s := hostSummary(8, 10)
	if s.Counter("bytes.total") <= 0 {
		t.Fatal("counter lookup failed")
	}
	if s.Counter("missing") != 0 {
		t.Fatal("missing counter not zero")
	}
	if _, ok := s.Hist("stage.retr"); !ok {
		t.Fatal("hist lookup failed")
	}
	if _, ok := s.Hist("missing"); ok {
		t.Fatal("phantom hist")
	}
	c := s.Clone()
	c.Hists[0].H.Buckets[0].N++
	if reflect.DeepEqual(c.Hists[0].H, s.Hists[0].H) {
		t.Fatal("clone shares bucket storage")
	}
}

func TestTickTime(t *testing.T) {
	if got := TickTime(0, time.Second); !got.Equal(time.Date(2000, 11, 6, 8, 0, 0, 0, time.UTC)) {
		t.Fatalf("tick 0 = %v", got)
	}
	if got := TickTime(90, 2*time.Second); got.Sub(TickTime(0, 2*time.Second)) != 3*time.Minute {
		t.Fatalf("tick 90 = %v", got)
	}
}
