package simnet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"esgrid/internal/transport"
	"esgrid/internal/vtime"
)

// newShellConn registers a Conn shell from src to dst whose flows —
// flows[0] carries src to dst — are driven by hand rather than by
// endpoint traffic. Listed at its hosts like a dialed conn, its flows
// are seen by everything that walks the live connections.
func newShellConn(n *Net, src, dst *Host) *Conn {
	c := &Conn{net: n}
	c.ep[0].host, c.ep[1].host = src, dst
	c.eps = [2]*Endpoint{&c.ep[0], &c.ep[1]}
	c.fl[0] = flow{net: n, conn: c, dir: 0, src: src, dst: dst}
	c.fl[1] = flow{net: n, conn: c, dir: 1, src: dst, dst: src}
	c.flows = [2]*flow{&c.fl[0], &c.fl[1]}
	c.writeCond = [2]vtime.Cond{n.clk.NewCond(nil), n.clk.NewCond(nil)}
	n.registerConnLocked(c)
	return c
}

// liveFlowsLocked lists both flows of every live connection.
func (n *Net) liveFlowsLocked() []*flow {
	var fs []*flow
	n.eachConnLocked(func(c *Conn) { fs = append(fs, c.flows[0], c.flows[1]) })
	return fs
}

// newChurnFlow builds a synthetic long-running flow suitable for driving
// the incremental allocator directly (it rides a Conn shell and carries
// an effectively infinite queued segment, so setRate's completion
// machinery has something well-formed to chew on without ever retiring
// it).
func newChurnFlow(n *Net, src, dst *Host, path []*simplex, windowCap float64) *flow {
	f := newShellConn(n, src, dst).flows[0]
	f.path, f.mss, f.windowCap = path, DefaultMSS, windowCap
	f.queuedEnd, f.segs = 1e18, []*segment{{end: 1e18, n: 1 << 60}}
	return f
}

// churnScenario is a randomized multi-component topology plus flows for
// differential testing: nSites independent site pairs (so real component
// structure exists) with a few cross-site links thrown in at random.
type churnScenario struct {
	n     *Net
	hosts []*Host
	links []*Link
	flows []*flow
}

func buildChurnScenario(rng *rand.Rand) *churnScenario {
	clk := vtime.NewSim(rng.Int63())
	n := New(clk)
	s := &churnScenario{n: n}
	nHosts := 4 + rng.Intn(8)
	for i := 0; i < nHosts; i++ {
		cfg := HostConfig{}
		if rng.Intn(3) == 0 {
			cfg.CPU = GigabitHostCPU(1 + float64(rng.Intn(8)))
		}
		if rng.Intn(3) == 0 {
			cfg.DiskBps = 50e6 + rng.Float64()*500e6
		}
		s.hosts = append(s.hosts, n.AddHost(fmt.Sprintf("h%02d", i), cfg))
	}
	// Pair up hosts (disjoint components), then add a few random extra
	// links so some components merge.
	for i := 0; i+1 < nHosts; i += 2 {
		s.links = append(s.links, n.AddLink(s.hosts[i].name, s.hosts[i+1].name, LinkConfig{
			CapacityBps: 10e6 + rng.Float64()*1e9, Delay: time.Millisecond,
		}))
	}
	for k := rng.Intn(3); k > 0; k-- {
		a, b := rng.Intn(nHosts), rng.Intn(nHosts)
		if a != b {
			s.links = append(s.links, n.AddLink(s.hosts[a].name, s.hosts[b].name, LinkConfig{
				CapacityBps: 10e6 + rng.Float64()*1e9, Delay: time.Millisecond,
			}))
		}
	}
	nFlows := 2 + rng.Intn(24)
	for i := 0; i < nFlows; i++ {
		src := s.hosts[rng.Intn(nHosts)]
		dst := s.hosts[rng.Intn(nHosts)]
		if src == dst {
			continue
		}
		path, err := n.routeLocked(src.name, dst.name)
		if err != nil {
			continue
		}
		windowCap := 1e6 + rng.Float64()*2e9
		if rng.Intn(4) == 0 {
			windowCap = math.Inf(1)
		}
		f := newChurnFlow(n, src, dst, path, windowCap)
		f.diskBound = rng.Intn(2) == 0
		s.flows = append(s.flows, f)
	}
	return s
}

// mutate applies one random allocator-relevant event through the
// production dirty-marking entry points. Caller holds no locks.
func (s *churnScenario) mutate(rng *rand.Rand) {
	n := s.n
	n.flushPending = true // drive flushes by hand, not via the event queue
	switch rng.Intn(6) {
	case 0: // activate an idle flow
		f := s.flows[rng.Intn(len(s.flows))]
		if !f.active {
			f.active = true
			n.flowActivatedLocked(f)
		}
	case 1: // deactivate an active flow
		f := s.flows[rng.Intn(len(s.flows))]
		if f.active {
			f.active = false
			n.flowDeactivatedLocked(f)
		}
	case 2: // window change (growth or loss)
		f := s.flows[rng.Intn(len(s.flows))]
		f.windowCap = 1e6 + rng.Float64()*2e9
		if f.active {
			n.markFlowDirtyLocked(f)
		}
	case 3: // capacity fault / repair
		l := s.links[rng.Intn(len(s.links))]
		factor := rng.Float64()
		if rng.Intn(2) == 0 {
			factor = 1
		}
		l.fwd.factor = factor
		l.rev.factor = factor
		n.markResDirtyLocked(&l.fwd.res)
		n.markResDirtyLocked(&l.rev.res)
	case 4: // link down / up
		l := s.links[rng.Intn(len(s.links))]
		up := rng.Intn(2) == 0
		l.fwd.up = up
		l.rev.up = up
		n.markResDirtyLocked(&l.fwd.res)
		n.markResDirtyLocked(&l.rev.res)
	case 5: // disk binding change
		f := s.flows[rng.Intn(len(s.flows))]
		wasAttached := f.attached
		n.detachLocked(f)
		f.diskBound = !f.diskBound
		f.invalidateRefs()
		if wasAttached {
			n.attachLocked(f)
			n.markFlowDirtyLocked(f)
		}
	}
	n.flushLocked()
}

// TestIncrementalMatchesReference is the seeded differential test: after
// every randomized event (flow churn, window changes, faults, disk/CPU
// binding changes) on randomized multi-component topologies, each active
// flow's incrementally maintained rate must match the reference full
// allocator's within 1e-6 relative.
func TestIncrementalMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := buildChurnScenario(rng)
		if len(s.flows) == 0 || len(s.links) == 0 {
			continue
		}
		for step := 0; step < 60; step++ {
			s.mutate(rng)
			// Reference allocation over all active flows in stable
			// (creation) order.
			var fs []*flow
			for _, f := range s.flows {
				if f.active {
					fs = append(fs, f)
				}
			}
			ref := s.n.allocate(fs)
			for i, f := range fs {
				want, got := ref[i], f.rate
				tol := 1e-6*math.Max(math.Abs(want), math.Abs(got)) + 1e-3
				if math.Abs(want-got) > tol {
					t.Fatalf("seed %d step %d: flow %s->%s rate %v, reference %v",
						seed, step, f.src.name, f.dst.name, got, want)
				}
			}
		}
	}
}

// runVerifiedWorkload runs concurrent transfers with faults, buffer and
// disk-binding changes through the real connection machinery, with the
// differential cross-check enabled so every incremental flush is compared
// against the reference allocator. It returns the virtual elapsed time
// and total bytes moved, which the determinism test compares across runs.
func runVerifiedWorkload(t *testing.T, seed int64, verify bool) (time.Duration, float64) {
	t.Helper()
	clk := vtime.NewSim(seed)
	n := New(clk)
	n.AddNode("wan")
	for i := 0; i < 3; i++ {
		srv := fmt.Sprintf("srv%d", i)
		n.AddHost(srv, HostConfig{
			CPU: GigabitHostCPU(4), DiskBps: 400e6, DefaultBufferBytes: 1 << 20,
		})
		n.AddLink(srv, "wan", LinkConfig{CapacityBps: 622e6, Delay: 2 * time.Millisecond, LossRate: 1e-4})
		cli := fmt.Sprintf("cli%d", i)
		n.AddHost(cli, HostConfig{DefaultBufferBytes: 1 << 20})
		n.AddLink(cli, "wan", LinkConfig{CapacityBps: 300e6, Delay: 3 * time.Millisecond})
	}
	n.SetVerifyAllocations(verify)
	const fileBytes = int64(24 << 20)
	var total float64
	clk.Run(func() {
		// Servers echo virtual bytes at each accepted conn.
		for i := 0; i < 3; i++ {
			srv := n.Host(fmt.Sprintf("srv%d", i))
			l, err := srv.Listen(":9000")
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
						if err := c.(transport.VirtualWriter).WriteVirtual(fileBytes); err != nil {
							return
						}
					})
				}
			})
		}
		// Fault injector: degrade and restore srv1's link mid-run, plus a
		// clean outage (stall, no reset) on srv2's.
		clk.Go(func() {
			clk.Sleep(300 * time.Millisecond)
			n.LinkBetween("srv1", "wan").SetCapacityFactor(0.25)
			clk.Sleep(400 * time.Millisecond)
			n.LinkBetween("srv1", "wan").SetCapacityFactor(1)
			clk.Sleep(100 * time.Millisecond)
			n.LinkBetween("srv2", "wan").SetUp(false, false)
			clk.Sleep(250 * time.Millisecond)
			n.LinkBetween("srv2", "wan").SetUp(true, false)
		})
		wg := vtime.NewWaitGroup(clk)
		for i := 0; i < 9; i++ {
			i := i
			wg.Go(func() {
				clk.Sleep(time.Duration(i) * 7 * time.Millisecond)
				cli := n.Host(fmt.Sprintf("cli%d", i%3))
				c, err := cli.Dial(fmt.Sprintf("srv%d:9000", i%3))
				if err != nil {
					t.Error(err)
					return
				}
				defer c.Close()
				ep := c.(*Endpoint)
				if i%2 == 0 {
					ep.SetBuffer(4 << 20)
				}
				if i%3 == 0 {
					ep.SetDiskBound(true)
				}
				var got int64
				for got < fileBytes {
					m, err := ep.ReadVirtual(fileBytes - got)
					if err != nil {
						t.Errorf("client %d: %v", i, err)
						return
					}
					got += m
				}
			})
		}
		wg.Wait()
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				total += n.TotalBytesBetween(fmt.Sprintf("srv%d", i), fmt.Sprintf("cli%d", j))
			}
		}
	})
	return clk.Elapsed(), total
}

// TestIncrementalDifferentialEndToEnd exercises the incremental allocator
// through the real connection machinery — concurrent transfers, capacity
// faults, an outage, buffer retuning and disk binding — with the
// reference cross-check verifying every flush.
func TestIncrementalDifferentialEndToEnd(t *testing.T) {
	elapsed, total := runVerifiedWorkload(t, 42, true)
	if total < float64(9*24<<20) {
		t.Fatalf("transfers incomplete: moved %.0f bytes in %v", total, elapsed)
	}
}

// TestDeterministicEventTrace runs the same faulted workload twice with
// the same seed and requires bit-identical outcomes: same virtual elapsed
// time, same byte totals.
func TestDeterministicEventTrace(t *testing.T) {
	e1, b1 := runVerifiedWorkload(t, 7, false)
	e2, b2 := runVerifiedWorkload(t, 7, false)
	if e1 != e2 {
		t.Fatalf("virtual elapsed diverged: %v vs %v", e1, e2)
	}
	if b1 != b2 {
		t.Fatalf("byte totals diverged: %v vs %v", b1, b2)
	}
}

// TestAllocateSteadyStateAllocFree verifies the progressive-filling
// allocator performs zero heap allocations once its scratch buffers are
// warm.
func TestAllocateSteadyStateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := buildChurnScenario(rng)
	n := s.n
	for _, f := range s.flows {
		f.active = true
	}
	fs := append([]*flow(nil), s.flows...)
	n.allocate(fs) // warm scratch
	allocs := testing.AllocsPerRun(100, func() {
		n.allocate(fs)
	})
	if allocs != 0 {
		t.Fatalf("allocate allocates %v times per run in steady state, want 0", allocs)
	}
}

// TestIncrementalFlushSteadyStateAllocFree verifies a steady-state
// dirty-mark + flush cycle — the per-event hot path — is allocation-free.
func TestIncrementalFlushSteadyStateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := buildChurnScenario(rng)
	n := s.n
	if len(s.flows) == 0 {
		t.Skip("empty scenario")
	}
	n.flushPending = true // keep the flush timer out of the picture
	for _, f := range s.flows {
		f.active = true
		n.flowActivatedLocked(f)
	}
	n.flushLocked()
	seed := s.flows[0]
	// One extra cycle with the same seed flow warms every scratch path
	// (component order, and with it floating-point rounding, is a
	// function of the seed, so rates stay bitwise stable afterwards).
	n.markFlowDirtyLocked(seed)
	n.flushLocked()
	allocs := testing.AllocsPerRun(100, func() {
		n.markFlowDirtyLocked(seed)
		n.flushLocked()
	})
	if allocs != 0 {
		t.Fatalf("flush allocates %v times per run in steady state, want 0", allocs)
	}
}

// TestSameInstantEventsCoalesce checks that a burst of same-instant
// activations triggers a single allocation pass over the shared
// component, not one pass per event.
func TestSameInstantEventsCoalesce(t *testing.T) {
	clk := vtime.NewSim(1)
	n := New(clk)
	n.AddHost("a", HostConfig{DefaultBufferBytes: 1 << 20})
	n.AddHost("b", HostConfig{DefaultBufferBytes: 1 << 20})
	n.AddLink("a", "b", LinkConfig{CapacityBps: 1e9, Delay: time.Millisecond})
	const clients = 16
	clk.Run(func() {
		l, err := n.Host("b").Listen(":9000")
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
					c.(transport.VirtualWriter).WriteVirtual(1 << 20)
				})
			}
		})
		conns := make([]*Endpoint, clients)
		for i := range conns {
			c, err := n.Host("a").Dial("b:9000")
			if err != nil {
				t.Error(err)
				return
			}
			conns[i] = c.(*Endpoint)
		}
		for _, c := range conns {
			var got int64
			for got < 1<<20 {
				m, err := c.ReadVirtual(1 << 20)
				if err != nil {
					t.Error(err)
					return
				}
				got += m
			}
		}
		clk.Sleep(time.Second)
		passes0, _ := n.AllocStats()
		if passes0 == 0 {
			t.Fatal("expected allocation passes during transfers")
		}
		// Now a fresh same-instant burst: all 16 clients upload at once.
		// That is 16 flow activations at one timestamp, followed by lock-
		// step window growth (16 growth events per RTT, all at the same
		// instant) on one shared component. With per-event recomputation
		// this costs hundreds of passes; the coalesced flush needs one
		// pass per distinct instant — activation, each growth round, the
		// completion/linger wave.
		wg := vtime.NewWaitGroup(clk)
		for _, c := range conns {
			c := c
			wg.Go(func() {
				if err := c.WriteVirtual(1 << 20); err != nil {
					t.Error(err)
				}
			})
		}
		wg.Wait()
		clk.Sleep(time.Second)
		passesEnd, _ := n.AllocStats()
		if passesEnd == passes0 {
			t.Fatal("expected allocation passes from the upload burst")
		}
		if burst := passesEnd - passes0; burst > 40 {
			t.Fatalf("upload burst cost %d allocation passes, want coalesced (<= 40)", burst)
		}
		for _, c := range conns {
			c.Close()
		}
	})
}
