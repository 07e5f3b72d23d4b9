package simnet

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"esgrid/internal/transport"
	"esgrid/internal/vtime"
)

// TestAllocationDivergenceFailsFast injects a wrong rate into a flow the
// next flush will not revisit and lets the end-of-instant hook's
// cross-check find it while the only runnable goroutine is parked in a
// Cond.Wait — the shape every blocked Read and Write has. The panic must
// carry the divergence message out of Run at once, not leave the run
// sitting until go test's timeout.
func TestAllocationDivergenceFailsFast(t *testing.T) {
	n, flows := buildBenchNet(16) // two disjoint 8-flow components
	n.SetVerifyAllocations(true)
	cond := n.clk.NewCond(nil)
	got := make(chan any, 1)
	start := time.Now()
	go func() {
		defer func() { got <- recover() }()
		n.clk.Run(func() {
			n.flushPending = false // buildBenchNet left the latch held
			flows[8].rate *= 2
			n.markFlowDirtyLocked(flows[0])
			cond.WaitTimeout(time.Second)
		})
	}()
	select {
	case r := <-got:
		if msg := fmt.Sprint(r); !strings.Contains(msg, "incremental allocation diverged") {
			t.Fatalf("run ended with %q, want the divergence panic", msg)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("divergence took %v to surface, want < 1s", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("divergence panic never surfaced: the run deadlocked")
	}
}

// steadyTick is one window tick on f's component: the flow goes dirty,
// the flush re-allocates. Membership does not change.
func steadyTick(n *Net, f *flow) {
	n.flushPending = true // drive the flush by hand
	n.markFlowDirtyLocked(f)
	n.flushLocked()
}

// dirtyAll marks every active flow dirty, the way a burst of same-instant
// window events would, with the flush latch held so tests drive flushes
// by hand.
func dirtyAll(n *Net, flows []*flow) {
	n.flushPending = true
	for _, f := range flows {
		if f.active {
			n.markFlowDirtyLocked(f)
		}
	}
}

func flushByHand(n *Net) {
	n.flushLocked()
}

// buildSaturatedNet builds nComp disjoint components of perComp flows
// each sharing one saturated 1 Gb/s link (half the flows window-limited
// below their fair share, so every pass runs the full water-filling
// rounds, never the caps-feasible fast path).
func buildSaturatedNet(nComp, perComp int) (*Net, []*flow) {
	clk := vtime.NewSim(1)
	n := New(clk)
	flows := make([]*flow, 0, nComp*perComp)
	for p := 0; p < nComp; p++ {
		src := n.AddHost(fmt.Sprintf("s%04d", p), HostConfig{})
		dst := n.AddHost(fmt.Sprintf("d%04d", p), HostConfig{})
		n.AddLink(src.name, dst.name, LinkConfig{CapacityBps: 1e9, Delay: 5 * time.Millisecond})
		path, err := n.routeLocked(src.name, dst.name)
		if err != nil {
			panic(err)
		}
		for k := 0; k < perComp; k++ {
			windowCap := math.Inf(1)
			if k%2 == 1 {
				windowCap = 4e6 // well below the 1e9/perComp fair share
			}
			f := newChurnFlow(n, src, dst, path, windowCap)
			f.active = true
			n.flowActivatedLocked(f)
			flows = append(flows, f)
		}
	}
	n.flushPending = true
	n.flushLocked()
	return n, flows
}

// flushRec is one FlushObserver call.
type flushRec struct {
	now    time.Duration
	sig    uint64
	nflows int
}

// recordFlushes installs a FlushObserver that appends every flush to
// the returned slice until the test ends.
func recordFlushes(t *testing.T) *[]flushRec {
	t.Helper()
	var recs []flushRec
	FlushObserver = func(now time.Duration, sig uint64, nflows int) {
		recs = append(recs, flushRec{now, sig, nflows})
	}
	t.Cleanup(func() { FlushObserver = nil })
	return &recs
}

// sameFlushes fails the test at the first flush where two equal-seed
// runs' fingerprint streams part, naming its index and virtual instant.
func sameFlushes(t *testing.T, a, b []flushRec) {
	t.Helper()
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			t.Fatalf("flush %d diverged: run 1 at %v fingerprint %#x over %d flows, run 2 at %v fingerprint %#x over %d flows",
				i, a[i].now, a[i].sig, a[i].nflows, b[i].now, b[i].sig, b[i].nflows)
		}
	}
	if len(a) != len(b) {
		t.Fatalf("run 1 flushed %d times, run 2 %d; the first %d flushes agree", len(a), len(b), min(len(a), len(b)))
	}
	if len(a) == 0 {
		t.Fatal("no flush observed; the comparison proved nothing")
	}
}

// TestProbeLeavesComponentRecordLive: a bandwidth-estimation probe runs
// its own pass over the probed component plus the probe. It must do so
// on the throwaway record — the live component's record, flatten and
// all, has to serve the next window tick as if no probe had happened.
func TestProbeLeavesComponentRecordLive(t *testing.T) {
	n, flows := buildBenchNet(16)
	steadyTick(n, flows[0])
	rec := flows[0].comp
	if rec == nil || rec.stale || !rec.flat || len(rec.flows) != 8 {
		t.Fatalf("no flattened 8-flow record after a steady tick: %+v", rec)
	}
	hits0, _ := n.CSRStats()
	if _, err := n.EstimateBandwidth("src0000", "dst0000"); err != nil {
		t.Fatal(err)
	}
	steadyTick(n, flows[0])
	hits1, _ := n.CSRStats()
	if hits1 != hits0+1 {
		t.Fatalf("tick after a probe: %d record hits, want 1", hits1-hits0)
	}
	if flows[0].comp != rec || !rec.flat || len(rec.flows) != 8 {
		t.Fatalf("probe disturbed the component's record: %+v (was %p)", flows[0].comp, rec)
	}
	for _, f := range rec.flows {
		if f.seq == 0 {
			t.Fatal("the probe flow leaked into the component's record")
		}
	}
}

// windowLimited32 is a steady 32-flow record on one saturated link with
// every flow window-limited far below its share: every pass takes the
// caps-feasible fast path. The first tick has warmed it.
func windowLimited32() (*Net, []*flow) {
	n, flows := buildSaturatedNet(1, 32)
	for _, f := range flows {
		f.windowCap = 4e6
	}
	steadyTick(n, flows[0])
	return n, flows
}

// TestRecordHitFlushAllocFree pins the steady-state hit flush of a
// 32-flow component — Table 1's shape: stamp, fold, cap compare,
// feasibility check, setRate — at zero allocations, and checks that
// every one of those flushes really was a hit.
func TestRecordHitFlushAllocFree(t *testing.T) {
	n, flows := windowLimited32()
	hits0, _ := n.CSRStats()
	const runs = 100
	allocs := testing.AllocsPerRun(runs, func() { steadyTick(n, flows[7]) })
	if allocs != 0 {
		t.Fatalf("hit flush allocates %v times per run, want 0", allocs)
	}
	if hits1, _ := n.CSRStats(); hits1-hits0 != runs+1 { // AllocsPerRun warms up once
		t.Fatalf("%d of %d steady flushes hit the record", hits1-hits0, runs+1)
	}
}

// TestRecordHitCapChangeFlushAllocFree is the same pin on the path most
// of Table 1's passes take: each tick first moves one flow's window cap,
// so the pass re-sums that flow's resources before the check. The flows
// must come out at their new caps.
func TestRecordHitCapChangeFlushAllocFree(t *testing.T) {
	n, flows := windowLimited32()
	hits0, _ := n.CSRStats()
	const runs = 100
	tick := 0
	allocs := testing.AllocsPerRun(runs, func() {
		// Every visit to a flow moves its cap: 4.1e6, 4.2e6, 4.1e6, ...
		f := flows[tick%len(flows)]
		f.windowCap = 4e6 + float64(tick/len(flows)%2+1)*1e5
		steadyTick(n, f)
		if f.rate != f.windowCap {
			t.Fatalf("tick %d: rate %v, want the new cap %v", tick, f.rate, f.windowCap)
		}
		tick++
	})
	if allocs != 0 {
		t.Fatalf("cap-change hit flush allocates %v times per run, want 0", allocs)
	}
	if hits1, _ := n.CSRStats(); hits1-hits0 != runs+1 {
		t.Fatalf("%d of %d cap-change flushes hit the record", hits1-hits0, runs+1)
	}
}

// TestCapacityChangeReachesMemo: a capacity change on a steady,
// caps-feasible record's shared link must reach the stored capacities
// in the same instant's flush — the degraded link water-fills to the
// fair share — and the restore must bring back the caps, on the same
// live record throughout.
func TestCapacityChangeReachesMemo(t *testing.T) {
	n, flows := windowLimited32()
	rec := flows[0].comp
	l := n.LinkBetween("s0000", "d0000")
	wantRates := func(step string, want float64) {
		t.Helper()
		flushByHand(n)
		if flows[0].comp != rec || !rec.flat {
			t.Fatalf("%s: the record was re-gathered", step)
		}
		for _, f := range flows {
			if math.Abs(f.rate-want) > 1e-9*want {
				t.Fatalf("%s: flow %d at %v b/s, want %v", step, f.seq, f.rate, want)
			}
		}
	}
	const share = 1e9 * 0.01 / 32
	for range 2 {
		l.SetCapacityFactor(0.01)
		wantRates("SetCapacityFactor(0.01)", share)
		l.SetCapacityFactor(1)
		wantRates("SetCapacityFactor(1)", 4e6)
		l.SetUp(false, false)
		wantRates("SetUp(false)", 0)
		l.SetUp(true, false)
		wantRates("SetUp(true)", 4e6)
	}
}

// TestMultiComponentHitFlushFingerprints: steady rounds over twelve
// disjoint components must every one be a record hit, and two identical
// builds driven through them must leave the same per-flush FNV
// fingerprint stream.
func TestMultiComponentHitFlushFingerprints(t *testing.T) {
	run := func() []flushRec {
		n, flows := buildBenchNet(96)
		recs := recordFlushes(t)
		dirtyAll(n, flows)
		flushByHand(n) // first flush after the build: gathers every record
		hits0, passes0 := n.CSRStats()
		for round := 0; round < 40; round++ {
			for i, f := range flows {
				f.windowCap = float64(20+((round*13+i*7)%80)) * 1e6
			}
			dirtyAll(n, flows)
			flushByHand(n)
		}
		hits, passes := n.CSRStats()
		if hits-hits0 != passes-passes0 || passes == passes0 {
			t.Fatalf("%d hits in %d steady passes", hits-hits0, passes-passes0)
		}
		return *recs
	}
	sameFlushes(t, run(), run())
}

// pairsOutcome is what one replayPairs run leaves behind.
type pairsOutcome struct {
	done    []time.Duration // completion instant of each transfer
	passes  uint64
	visited uint64
	flushes []flushRec
}

// replayPairs runs conns concurrent transfers of total bytes on each of
// pairs disjoint two-host components under the real event loop; the
// c-th connection of every pair dials at c*stagger, so the first ones
// all land on the same virtual instant.
func replayPairs(t *testing.T, seed int64, pairs, conns int, link LinkConfig, stagger time.Duration, total int64) pairsOutcome {
	t.Helper()
	clk := vtime.NewSim(seed)
	n := New(clk)
	for p := 0; p < pairs; p++ {
		a, b := fmt.Sprintf("a%d", p), fmt.Sprintf("b%d", p)
		n.AddHost(a, HostConfig{DefaultBufferBytes: 1 << 20})
		n.AddHost(b, HostConfig{DefaultBufferBytes: 1 << 20})
		n.AddLink(a, b, link)
	}
	recs := recordFlushes(t)
	out := pairsOutcome{done: make([]time.Duration, pairs*conns)}
	clk.Run(func() {
		wg := vtime.NewWaitGroup(clk)
		for p := 0; p < pairs; p++ {
			l, err := n.Host(fmt.Sprintf("b%d", p)).Listen(":9000")
			if err != nil {
				t.Errorf("listen: %v", err)
				return
			}
			for c := 0; c < conns; c++ {
				clk.Go(func() {
					cc, err := l.Accept()
					if err != nil {
						t.Errorf("accept: %v", err)
						return
					}
					defer cc.Close()
					transport.ReadVirtualFrom(cc, total)
				})
				wg.Go(func() {
					if c > 0 {
						clk.Sleep(time.Duration(c) * stagger)
					}
					cc, err := n.Host(fmt.Sprintf("a%d", p)).Dial(fmt.Sprintf("b%d:9000", p))
					if err != nil {
						t.Errorf("dial: %v", err)
						return
					}
					defer cc.Close()
					if _, err := transport.WriteVirtualTo(cc, total); err != nil {
						t.Errorf("write: %v", err)
						return
					}
					out.done[p*conns+c] = clk.Now().Sub(vtime.Epoch)
				})
			}
		}
		wg.Wait()
	})
	out.passes, out.visited = n.AllocStats()
	out.flushes = *recs
	return out
}

// sameReplay fails the test unless two equal-seed runs agree on every
// flush fingerprint, every completion instant and the allocator
// accounting.
func sameReplay(t *testing.T, run func() pairsOutcome) {
	t.Helper()
	a, b := run(), run()
	sameFlushes(t, a.flushes, b.flushes)
	if !slices.Equal(a.done, b.done) || a.passes != b.passes || a.visited != b.visited {
		t.Fatalf("equal-seed runs diverged:\nrun 1 done %v, %d passes over %d flows\nrun 2 done %v, %d passes over %d flows",
			a.done, a.passes, a.visited, b.done, b.passes, b.visited)
	}
	if slices.Contains(a.done, 0) {
		t.Fatalf("a transfer never completed: %v", a.done)
	}
}

// TestSameInstantCrossComponentDials: two clients in disjoint
// components dial at the same virtual instant, so the dial instant
// attaches flows in two different components at once and whichever
// goroutine runs first marks its flow dirty first. Equal-seed runs must
// not see that order.
func TestSameInstantCrossComponentDials(t *testing.T) {
	sameReplay(t, func() pairsOutcome {
		return replayPairs(t, 11, 2, 1, LinkConfig{CapacityBps: 100e6, Delay: 2 * time.Millisecond}, 0, 4<<20)
	})
}

// TestLossyMultiPairRunByteIdentical is the end-to-end simnet
// determinism check with loss (RNG draws on the flush path): sixteen
// transfers over four disjoint lossy site pairs, four dialling in each
// instant.
func TestLossyMultiPairRunByteIdentical(t *testing.T) {
	sameReplay(t, func() pairsOutcome {
		link := LinkConfig{CapacityBps: 200e6, Delay: 3 * time.Millisecond, LossRate: 1e-5}
		return replayPairs(t, 23, 4, 4, link, 100*time.Microsecond, 2<<20)
	})
}

// checkRecordsLocked is the record's whole contract, checked from
// outside: once a flush has run, every attached flow points at a live
// record whose flow list is, element for element, what a fresh BFS and
// sortFlowsBySeq produce from it now; a record's bound is the number of
// flows pointing at it; nothing on the free list is referenced; and
// every flattened record this flush re-allocated holds a memo equal to
// recomputation (checkMemoLocked). It returns how many of the memos it
// checked had built their columns.
func checkRecordsLocked(t *testing.T, n *Net) int {
	t.Helper()
	// The flows this flush visited still carry its epoch; the gathers
	// below move it on.
	var memos []*component
	for _, f := range n.liveFlowsLocked() {
		if c := f.comp; f.attached && f.epoch == n.epoch && c != nil && c.flat && !slices.Contains(memos, c) {
			memos = append(memos, c)
		}
	}
	withCols := 0
	for _, c := range memos {
		checkMemoLocked(t, c)
		if c.cols {
			withCols++
		}
	}
	if slices.Contains(n.scr.queued, true) {
		t.Error("a pass left a re-sum mark set")
	}
	pointers := map[*component]int{}
	var fresh []*flow
	for _, f := range n.liveFlowsLocked() {
		c := f.comp
		if !f.attached {
			if c != nil {
				t.Errorf("detached flow %d still holds a record", f.seq)
			}
			continue
		}
		if c == nil || c.stale {
			t.Errorf("attached flow %d has no live record after a flush (%+v)", f.seq, c)
			continue
		}
		pointers[c]++
		n.epoch++
		fresh = n.bfsLocked(f, fresh[:0])
		sortFlowsBySeq(fresh)
		if !slices.Equal(fresh, c.flows) {
			t.Errorf("flow %d: record lists %d flows, a fresh gather %d, or in another order", f.seq, len(c.flows), len(fresh))
		}
	}
	for c, k := range pointers {
		if c.bound != k {
			t.Errorf("record of %d flows counts %d bound flows, %d point at it", len(c.flows), c.bound, k)
		}
	}
	for _, c := range n.compFree {
		if c.bound != 0 || pointers[c] != 0 {
			t.Errorf("free record still referenced (bound %d, %d pointers)", c.bound, pointers[c])
		}
	}
	return withCols
}

// memoEdge is one term of a resource's load: a flow (by record index)
// and its weight on the resource.
type memoEdge struct {
	flow int32
	w    uint64 // math.Float64bits of the weight
}

// checkMemoLocked recomputes a re-allocated record's feasibility memo
// from the flows themselves, not from its CSR: every stored cap is the
// flow's cap bit for bit; every resource's load is bit-identical to a
// fresh ordered sum over the flows' resource lists at the current caps;
// every stored capacity is the resource's effective capacity; once the
// columns are built, every column holds exactly its resource's edges in
// that order, and every resource sharing another's column really has
// that resource's edges; and the infinite-cap and over-capacity counts
// are what the fresh values give.
func checkMemoLocked(t *testing.T, c *component) {
	t.Helper()
	nInf, over := 0, 0
	column := func(r *res) (col []memoEdge, load float64) {
		for i, f := range c.flows {
			for _, rr := range f.refs() {
				if rr.r == r {
					col = append(col, memoEdge{int32(i), math.Float64bits(rr.w)})
					load += rr.w * f.windowCap
				}
			}
		}
		return col, load
	}
	for i, f := range c.flows {
		if math.Float64bits(c.caps[i]) != math.Float64bits(f.windowCap) {
			t.Errorf("record of %d flows: stored cap %v for flow %d, its cap is %v", len(c.flows), c.caps[i], f.seq, f.windowCap)
		}
		if math.IsInf(f.windowCap, 1) {
			nInf++
		}
	}
	if !c.capsOK {
		t.Errorf("record of %d flows left a pass with its capacities unread", len(c.flows))
	}
	for j, r := range c.ress {
		col, load := column(r)
		if math.Float64bits(c.load[j]) != math.Float64bits(load) {
			t.Errorf("record of %d flows: memoised load %v on %s, a fresh sum %v", len(c.flows), c.load[j], r.name, load)
		}
		if c.capEff[j] != r.effective() {
			t.Errorf("record of %d flows: stored capacity %v on %s, effective %v", len(c.flows), c.capEff[j], r.name, r.effective())
		}
		if c.cols {
			var built []memoEdge
			for e := c.colStart[j]; e < c.colStart[j+1]; e++ {
				built = append(built, memoEdge{c.colFlow[e], math.Float64bits(c.colW[e])})
			}
			if !slices.Equal(built, col) {
				t.Errorf("record of %d flows: the column of %s lists %v, its edges are %v", len(c.flows), r.name, built, col)
			}
			if rep := int(c.rep[j]); rep != j {
				if repCol, _ := column(c.ress[rep]); !slices.Equal(col, repCol) {
					t.Errorf("record of %d flows: %s shares the column of %s, but their edges differ", len(c.flows), r.name, c.ress[rep].name)
				}
			}
		}
		if load > r.effective() {
			over++
		}
	}
	if c.nInf != nInf || c.over != over {
		t.Errorf("record of %d flows counts %d infinite caps and %d resources over capacity, fresh values give %d and %d",
			len(c.flows), c.nInf, c.over, nInf, over)
	}
}

// TestRecordsSurviveChurn drives the records through everything that
// can change a component — dials and closes, disk rebinding, capacity
// faults, link outages with and without resets, host crashes and
// connection resets, on a star whose flows merge and split components as
// they come and go, many of them in the same instant — with the
// reference cross-check on and the record contract checked at every
// flush.
func TestRecordsSurviveChurn(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		clk := vtime.NewSim(seed)
		n := New(clk)
		const nHosts = 6
		names := make([]string, nHosts)
		n.AddNode("wan")
		for i := range names {
			names[i] = fmt.Sprintf("h%d", i)
			cfg := HostConfig{DefaultBufferBytes: 1 << 20}
			if i%2 == 0 {
				cfg.CPU = GigabitHostCPU(4)
			}
			if i%3 == 0 {
				cfg.DiskBps = 200e6
			}
			n.AddHost(names[i], cfg)
			n.AddLink(names[i], "wan", LinkConfig{CapacityBps: 300e6, Delay: time.Millisecond, LossRate: 1e-5})
		}
		n.SetVerifyAllocations(true)
		flushes, memos := 0, 0
		FlushObserver = func(time.Duration, uint64, int) {
			flushes++
			memos += checkRecordsLocked(t, n)
		}
		clk.Run(func() {
			for _, name := range names {
				l, err := n.Host(name).Listen(":9000")
				if err != nil {
					t.Error(err)
					return
				}
				clk.Go(func() {
					for {
						c, err := l.Accept()
						if err != nil {
							return
						}
						clk.Go(func() {
							defer c.Close()
							transport.ReadVirtualFrom(c, 1<<40) // until the peer closes or a fault resets
						})
					}
				})
			}
			wg := vtime.NewWaitGroup(clk)
			for w := 0; w < 8; w++ {
				rng := rand.New(rand.NewSource(seed*100 + int64(w)))
				wg.Go(func() {
					for i := 0; i < 25; i++ {
						// Whole milliseconds, so several clients act in one instant.
						clk.Sleep(time.Duration(1+rng.Intn(4)) * time.Millisecond)
						src, dst := rng.Intn(nHosts), rng.Intn(nHosts)
						if src == dst {
							continue
						}
						c, err := n.Host(names[src]).Dial(names[dst] + ":9000")
						if err != nil {
							continue // host down
						}
						ep := c.(*Endpoint)
						if rng.Intn(2) == 0 {
							ep.SetDiskBound(true)
						}
						if ep.WriteVirtual(int64(64+rng.Intn(512))<<10) == nil && rng.Intn(3) == 0 {
							ep.SetDiskBound(rng.Intn(2) == 0) // rebind mid-stream
							ep.WriteVirtual(int64(64+rng.Intn(512)) << 10)
						}
						c.Close()
					}
				})
			}
			rng := rand.New(rand.NewSource(seed))
			wg.Go(func() {
				for i := 0; i < 40; i++ {
					clk.Sleep(time.Duration(1+rng.Intn(3)) * time.Millisecond)
					h := names[rng.Intn(nHosts)]
					l := n.LinkBetween(h, "wan")
					switch rng.Intn(6) {
					case 0:
						l.SetCapacityFactor(0.1 + 0.9*rng.Float64())
					case 1:
						l.SetCapacityFactor(1)
					case 2:
						l.SetUp(false, rng.Intn(2) == 0)
						clk.Sleep(time.Millisecond)
						l.SetUp(true, false)
					case 3:
						n.Host(h).ResetConns("churn")
					case 4:
						n.Host(h).SetDown(true)
						clk.Sleep(time.Millisecond)
						n.Host(h).SetDown(false)
					case 5:
						if _, err := n.EstimateBandwidth(h, names[rng.Intn(nHosts)]); err != nil {
							t.Error(err)
						}
					}
				}
			})
			wg.Wait()
		})
		FlushObserver = nil
		hits, passes := n.CSRStats()
		if flushes == 0 || hits == 0 || hits == passes || memos == 0 {
			t.Fatalf("seed %d: %d flushes, %d record hits in %d passes, %d memos checked with columns: the churn exercised only one side", seed, flushes, hits, passes, memos)
		}
	}
}
