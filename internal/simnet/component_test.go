package simnet

import (
	"fmt"
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
// Cond.Wait on Net.mu — the shape every blocked Read and Write has. The
// panic must carry the divergence message out through the wait's
// deferred re-lock; when the hook kept Net.mu across the panic that
// re-lock self-deadlocked and the run sat until go test's timeout.
func TestAllocationDivergenceFailsFast(t *testing.T) {
	n, flows := buildBenchNet(16) // two disjoint 8-flow components
	n.SetVerifyAllocations(true)
	cond := n.clk.NewCond(&n.mu)
	got := make(chan any, 1)
	start := time.Now()
	go func() {
		defer func() { got <- recover() }()
		n.clk.Run(func() {
			n.mu.Lock()
			defer n.mu.Unlock()
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
		t.Fatal("divergence panic never surfaced: the hook deadlocked on Net.mu")
	}
}

// steadyTick is one window tick on f's component: the flow goes dirty,
// the flush re-allocates. Membership does not change.
func steadyTick(n *Net, f *flow) {
	n.mu.Lock()
	n.flushPending = true // drive the flush by hand
	n.markFlowDirtyLocked(f)
	n.flushLocked()
	n.mu.Unlock()
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

// TestRecordHitFlushAllocFree pins the steady-state hit flush of a
// 32-flow component — Table 1's shape: stamp, fold, refresh caps and
// residuals, feasibility sum, setRate — at zero allocations, and checks
// that every one of those flushes really was a hit.
func TestRecordHitFlushAllocFree(t *testing.T) {
	n, flows := buildParBenchNet(1, 32)
	n.mu.Lock()
	for _, f := range flows {
		f.windowCap = 4e6 // window-limited: the caps-feasible fast path
	}
	n.mu.Unlock()
	steadyTick(n, flows[0]) // warm
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

// TestParallelHitFlushFingerprints: steady rounds — every pass a record
// hit — must leave the same per-flush FNV fingerprint stream whether the
// flush runs sequentially or fans over 1, 2 or 4 lanes, each of which
// refreshes the records it is handed on its own scratch.
func TestParallelHitFlushFingerprints(t *testing.T) {
	run := func(workers int) (sigs []uint64, par uint64) {
		n, flows := buildBenchNet(96)
		n.clk.SetWorkers(workers)
		defer n.clk.SetWorkers(1)
		FlushObserver = func(_ time.Duration, sig uint64, _ int) { sigs = append(sigs, sig) }
		defer func() { FlushObserver = nil }()
		dirtyAll(n, flows)
		flushByHand(n) // first flush after the build: gathers every record
		hits0, passes0 := n.CSRStats()
		for round := 0; round < 40; round++ {
			n.mu.Lock()
			for i, f := range flows {
				f.windowCap = float64(20+((round*13+i*7)%80)) * 1e6
			}
			n.mu.Unlock()
			dirtyAll(n, flows)
			flushByHand(n)
		}
		hits, passes := n.CSRStats()
		if hits-hits0 != passes-passes0 || passes == passes0 {
			t.Fatalf("workers=%d: %d hits in %d steady passes", workers, hits-hits0, passes-passes0)
		}
		par, _, _ = n.ParStats()
		return sigs, par
	}
	base, _ := run(0)
	for _, workers := range []int{1, 2, 4} {
		got, par := run(workers)
		if len(got) != len(base) {
			t.Fatalf("workers=%d: %d flushes, sequential %d", workers, len(got), len(base))
		}
		for i := range got {
			if got[i] != base[i] {
				t.Fatalf("workers=%d: flush %d fingerprint %#x, sequential %#x", workers, i, got[i], base[i])
			}
		}
		if workers >= 2 && par == 0 {
			t.Fatalf("workers=%d: no flush fanned", workers)
		}
	}
}

// checkRecordsLocked is the record's whole contract, checked from
// outside: once a flush has run, every attached flow points at a live
// record whose flow list is, element for element, what a fresh BFS and
// sortFlowsBySeq produce from it now; a record's bound is the number of
// flows pointing at it; and nothing on the free list is referenced.
func checkRecordsLocked(t *testing.T, n *Net) {
	t.Helper()
	pointers := map[*component]int{}
	var fresh []*flow
	for f := range n.flows {
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
		flushes := 0
		FlushObserver = func(time.Duration, uint64, int) {
			flushes++
			checkRecordsLocked(t, n)
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
		if flushes == 0 || hits == 0 || hits == passes {
			t.Fatalf("seed %d: %d flushes, %d record hits in %d passes: the churn exercised only one side", seed, flushes, hits, passes)
		}
	}
}
