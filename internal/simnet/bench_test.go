package simnet

import (
	"fmt"
	"math"
	"testing"
	"time"

	"esgrid/internal/transport"
	"esgrid/internal/vtime"
)

// buildBenchNet builds a realistic multi-component topology — independent
// site pairs, as in the Table 1 striped testbed or a multi-user grid with
// disjoint source/destination sites — carrying nFlows long-running
// transfers spread evenly across the pairs. Every 4th source host has a
// CPU budget and every 4th destination a disk cap, so host resources
// participate in the allocation too.
func buildBenchNet(nFlows int) (*Net, []*flow) {
	perPair := 8
	if nFlows < perPair {
		perPair = nFlows
	}
	pairs := (nFlows + perPair - 1) / perPair
	clk := vtime.NewSim(1)
	n := New(clk)
	flows := make([]*flow, 0, nFlows)
	for p := 0; p < pairs; p++ {
		srcCfg := HostConfig{}
		if p%4 == 1 {
			srcCfg.CPU = GigabitHostCPU(4)
		}
		dstCfg := HostConfig{}
		if p%4 == 2 {
			dstCfg.DiskBps = 400e6
		}
		src := n.AddHost(fmt.Sprintf("src%04d", p), srcCfg)
		dst := n.AddHost(fmt.Sprintf("dst%04d", p), dstCfg)
		n.AddLink(src.name, dst.name, LinkConfig{CapacityBps: 1e9, Delay: 5 * time.Millisecond})
		path, err := n.routeLocked(src.name, dst.name)
		if err != nil {
			panic(err)
		}
		for k := 0; k < perPair && len(flows) < nFlows; k++ {
			windowCap := math.Inf(1)
			if k%2 == 1 {
				windowCap = 60e6 // window-limited below the fair share
			}
			f := newChurnFlow(n, src, dst, path, windowCap)
			f.diskBound = k%3 == 0
			f.active = true
			n.flowActivatedLocked(f)
			flows = append(flows, f)
		}
	}
	n.flushPending = true // benches drive flushes by hand
	n.flushLocked()
	return n, flows
}

var benchSizes = []int{16, 256, 1024}

// BenchmarkAllocate measures one progressive-filling pass over all active
// flows on a flattened record — the inner allocator kernel, which must be
// allocation-free in steady state.
func BenchmarkAllocate(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(fmt.Sprintf("flows=%d", size), func(b *testing.B) {
			n, flows := buildBenchNet(size)
			c := &component{flows: flows}
			n.scr.alloc(c, n.nextResID) // warm scratch, flatten
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.scr.alloc(c, n.nextResID)
			}
		})
	}
}

// buildTable1Net builds Table 1's component shape: 32 window-limited
// flows between two hosts with CPU budgets, over one shared 3-link path.
// Every pass over it is caps-feasible, and the three links' columns are
// identical.
func buildTable1Net() (*Net, []*flow) {
	clk := vtime.NewSim(1)
	n := New(clk)
	src := n.AddHost("src", HostConfig{CPU: GigabitHostCPU(4)})
	dst := n.AddHost("dst", HostConfig{CPU: GigabitHostCPU(4)})
	n.AddLink("src", "sw-a", LinkConfig{CapacityBps: 1e9, Delay: time.Millisecond})
	n.AddLink("sw-a", "sw-b", LinkConfig{CapacityBps: 622e6, Delay: 20 * time.Millisecond})
	n.AddLink("sw-b", "dst", LinkConfig{CapacityBps: 1e9, Delay: time.Millisecond})
	path, err := n.routeLocked("src", "dst")
	if err != nil {
		panic(err)
	}
	flows := make([]*flow, 32)
	for i := range flows {
		flows[i] = newChurnFlow(n, src, dst, path, 10e6)
		flows[i].active = true
		n.flowActivatedLocked(flows[i])
	}
	n.flushPending = true // benches drive flushes by hand
	n.flushLocked()
	return n, flows
}

// BenchmarkRecompute measures the production per-event path: one flow's
// window cap moves, its component is marked dirty and the coalesced
// flush re-allocates just that component. Cost is O(component),
// independent of the total flow population — compare
// BenchmarkRecomputeFull. Each visit to a seed flow moves its cap
// between two window-limited values, so every pass re-sums the moved
// flow's resources. The flows=N cases are buildBenchNet's site pairs,
// whose unlimited flows make every pass water-fill; table1 is
// buildTable1Net, where every pass is caps-feasible.
func BenchmarkRecompute(b *testing.B) {
	run := func(b *testing.B, n *Net, seeds []*flow) {
		for _, f := range seeds {
			n.markFlowDirtyLocked(f)
			n.flushLocked()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f := seeds[i%len(seeds)]
			f.windowCap = float64(50+i/len(seeds)%2) * 1e6
			n.markFlowDirtyLocked(f)
			n.flushLocked()
		}
	}
	for _, size := range benchSizes {
		b.Run(fmt.Sprintf("flows=%d", size), func(b *testing.B) {
			n, flows := buildBenchNet(size)
			// One flow per component as the recurring dirty seed (a fixed
			// seed keeps component ordering, and therefore floating-point
			// rounding, bitwise stable across flushes).
			var seeds []*flow
			for _, f := range flows {
				if f.dir == 0 && (len(seeds) == 0 || seeds[len(seeds)-1].src != f.src) {
					seeds = append(seeds, f)
				}
			}
			run(b, n, seeds)
		})
	}
	b.Run("table1", func(b *testing.B) {
		n, flows := buildTable1Net()
		run(b, n, flows[:1])
	})
}

// recomputeLocked is the seed's full recomputation, kept only as this
// file's yardstick: fold every flow at the current instant, re-run the
// fair allocation over all active flows, apply the rates. No production
// path calls it; the differential cross-check (SetVerifyAllocations)
// compares against a bare allocate over the same flows instead.
func (n *Net) recomputeLocked() {
	now := n.clk.Elapsed()
	fs := n.activeFlowsLocked()
	for _, f := range n.liveFlowsLocked() {
		f.fold(now)
	}
	rates := n.allocate(fs)
	for i, f := range fs {
		f.setRate(now, rates[i])
	}
}

// BenchmarkRecomputeFull measures the seed's full-recompute path (fold
// every flow, re-allocate the whole network) on the same topologies, for
// comparison with BenchmarkRecompute.
func BenchmarkRecomputeFull(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(fmt.Sprintf("flows=%d", size), func(b *testing.B) {
			n, _ := buildBenchNet(size)
			n.recomputeLocked() // warm scratch, arm completion timers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.recomputeLocked()
			}
		})
	}
}

// BenchmarkLongFlowGrowth runs one disk-capped, lossy flow at 24 ms RTT
// for 10 simulated minutes. The disk, not the window, limits it, so
// between losses its per-RTT growth ticks are the ones a flow that is
// not window-limited sleeps through. Beside the time it reports the
// core events per run (schedules, fires, cancels, re-arms): the layer
// that skipping those ticks moves.
func BenchmarkLongFlowGrowth(b *testing.B) {
	const total = 16 << 30
	var events uint64
	for i := 0; i < b.N; i++ {
		clk := vtime.NewSim(1)
		clk.Run(func() {
			n := New(clk)
			src := n.AddHost("a", HostConfig{DefaultBufferBytes: 8 * mb})
			dst := n.AddHost("b", HostConfig{DiskBps: 100 * mbps, DefaultBufferBytes: 8 * mb})
			n.AddLink("a", "b", LinkConfig{CapacityBps: 1 * gbps, Delay: 12 * time.Millisecond, LossRate: 1e-5})
			l, err := dst.Listen(":9000")
			if err != nil {
				b.Fatal(err)
			}
			clk.Go(func() {
				if c, err := l.Accept(); err == nil {
					transport.ReadVirtualFrom(c, total)
				}
			})
			c, err := src.Dial("b:9000")
			if err != nil {
				b.Fatal(err)
			}
			ep := c.(*Endpoint)
			ep.SetDiskBound(true)
			clk.Go(func() { ep.WriteVirtual(total) })
			clk.Sleep(10 * time.Minute)
		})
		s := clk.CoreStats()
		events += s.Scheduled + s.Fired + s.Cancelled + s.Rearmed
	}
	b.ReportMetric(float64(events)/float64(b.N), "core-events/op")
}
