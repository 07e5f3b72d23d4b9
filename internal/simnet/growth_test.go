package simnet

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"esgrid/internal/vtime"
)

// stepWindow is the per-tick reference: k onGrow steps, the last one
// being the step that reaches maxW and ends the chain.
func stepWindow(w, ssthresh, maxW, mss float64, k int64) (float64, int64) {
	var n int64
	for n < k {
		w = growStep(w, ssthresh, maxW, mss)
		n++
		if w >= maxW {
			break
		}
	}
	return w, n
}

// TestGrowWindowMatchesSteps draws windows in every state a sleeping flow
// can be in and checks that the closed form lands on the per-tick
// window bit for bit, after the same number of ticks.
func TestGrowWindowMatchesSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	msses := []float64{536, 1460, 8960}
	cases := map[string]int{}
	for i := 0; i < 20000; i++ {
		mss := msses[rng.Intn(len(msses))]
		if rng.Intn(4) == 0 {
			mss = float64(500 + rng.Intn(9000))
		}
		maxW := float64(int64(4*mss) + rng.Int63n(64<<20))
		w := float64(initialWindowMSS) * mss
		ssthresh := math.Inf(1)
		var kind string
		switch rng.Intn(5) {
		case 0: // slow start, crossing into congestion avoidance
			ssthresh = float64(2*int64(mss)) + rng.Float64()*maxW
			kind = "slow start into avoidance"
		case 1: // halved by losses: a fractional part is left over
			w = float64(int64(2*mss) + rng.Int63n(int64(maxW-2*mss)))
			for h := rng.Intn(60); h > 0; h-- {
				w = math.Max(w/2, 2*mss)
				ssthresh = w
				w += float64(rng.Intn(2000)) * mss
				w = math.Min(w, maxW)
			}
			kind = "fraction after halving"
		case 2: // a full 53-bit significand: every binade crossing rounds
			e := 11 + rng.Intn(15)
			w = math.Max(math.Ldexp(float64(rng.Int63n(1<<53)|1<<52), e-52), 2*mss)
			ssthresh = w
			maxW = math.Max(maxW, w+mss)
			kind = "full significand"
		case 3: // SetBuffer clamped the window to the buffer
			w = maxW
			ssthresh = math.Max(maxW/2, 2*mss)
			if rng.Intn(2) == 0 {
				ssthresh = math.Inf(1)
			}
			kind = "SetBuffer clamp"
		default: // one step short of the end of the chain
			w = maxW - 1 - rng.Float64()*mss
			ssthresh = math.Max(w/2, 2*mss)
			kind = "end at maxWindow"
		}
		if w > maxW {
			w = maxW
		}
		k := 1 + rng.Int63n(1+int64(rng.ExpFloat64()*3000))
		gotW, gotN := growWindow(w, ssthresh, maxW, mss, k)
		wantW, wantN := stepWindow(w, ssthresh, maxW, mss, k)
		if math.Float64bits(gotW) != math.Float64bits(wantW) || gotN != wantN {
			t.Fatalf("%s: w=%v ssthresh=%v maxW=%v mss=%v k=%d: closed form %v after %d ticks, steps %v after %d",
				kind, w, ssthresh, maxW, mss, k, gotW, gotN, wantW, wantN)
		}
		if gotN < k {
			cases["chain ended"]++
		}
		cases[kind]++
	}
	for _, kind := range []string{"slow start into avoidance", "fraction after halving", "full significand", "SetBuffer clamp", "end at maxWindow", "chain ended"} {
		if cases[kind] == 0 {
			t.Errorf("no draw covered %q", kind)
		}
	}
}

// dialFlow dials addr from h and returns the client endpoint and the
// flow that carries its writes.
func dialFlow(t *testing.T, h *Host, addr string) (*Endpoint, *flow) {
	t.Helper()
	c, err := h.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	ep := c.(*Endpoint)
	return ep, ep.conn.flows[ep.idx]
}

// ticksBefore counts the grid instants from+k·rtt that fall before now.
func ticksBefore(from, now, rtt time.Duration) int64 {
	if now <= from {
		return 0
	}
	return int64((now-from-1)/rtt) + 1
}

// A disk-capped flow is never window-limited, so it sleeps through every
// tick between two losses. At the next loss the window it works out
// must be the one the per-tick schedule would have built since the loss
// before: ssthresh is half of it.
func TestSleepingFlowWindowAtLoss(t *testing.T) {
	clk := vtime.NewSim(3)
	defer func() { fireHook = nil }()
	clk.Run(func() {
		n := New(clk)
		a := n.AddHost("a", HostConfig{DefaultBufferBytes: 8 * mb})
		b := n.AddHost("b", HostConfig{DiskBps: 100 * mbps, DefaultBufferBytes: 8 * mb})
		n.AddLink("a", "b", LinkConfig{CapacityBps: 1 * gbps, Delay: 12 * time.Millisecond, LossRate: 2e-5})
		l, _ := b.Listen(":9000")
		const total = 4 << 30
		serveBytes(t, clk, l, total, make(chan time.Time, 1))
		ep, f := dialFlow(t, a, "b:9000")
		ep.SetDiskBound(true)

		// after is the flow's window state as one loss left it.
		type after struct {
			w, ssthresh float64
			growAt      time.Duration
			skipped     uint64
		}
		var last *after
		checked := 0
		fireHook = func(g *flow, kind uint8) bool {
			if g != f || kind != evLoss {
				return false
			}
			now := n.clk.Elapsed()
			var want float64
			check := last != nil && f.growing && f.growEv == 0 &&
				(now-last.growAt)%f.rtt != 0 // a loss on a tick instant is another test's
			if check {
				want, _ = stepWindow(last.w, last.ssthresh, f.maxWindow, float64(f.mss), ticksBefore(last.growAt, now, f.rtt))
			}
			f.onLoss()
			if check {
				checked++
				if got, want := f.ssthresh, math.Max(want/2, float64(2*f.mss)); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("loss at %v: ssthresh %v, per-tick window gives %v", now, got, want)
				}
				if n.growSkipped == last.skipped {
					t.Errorf("loss at %v: the flow slept, yet no tick was skipped since the loss before", now)
				}
			}
			last = &after{f.window, f.ssthresh, f.growAt, n.growSkipped}
			return true
		}
		clk.Go(func() { ep.WriteVirtual(total) })
		clk.Sleep(2 * time.Minute)
		if checked < 3 || n.growTies != 0 {
			t.Fatalf("%d losses of a sleeping flow checked, %d same-instant ties; want at least 3 and 0", checked, n.growTies)
		}
	})
}

// Flows A and B share link r-c. B also crosses b-r; when b-r loses 90 %
// of its capacity, A's share outgrows its window and A, asleep since it
// outgrew its half share, wakes. Its ticks, read off the flight ring,
// must all fall on the grid its first tick set, with a gap where it
// slept and fires again after the drop.
func TestWokenFlowTicksOnItsGrid(t *testing.T) {
	clk := vtime.NewSim(1)
	ring := vtime.NewCoreRing(1 << 16)
	clk.SetCoreRing(ring)
	const drop = 9 * time.Second
	clk.Run(func() {
		n := New(clk)
		for _, h := range []string{"a", "b", "r", "c"} {
			n.AddHost(h, HostConfig{DefaultBufferBytes: 1 * mb})
		}
		link := LinkConfig{CapacityBps: 100 * mbps, Delay: 10 * time.Millisecond}
		n.AddLink("a", "r", link)
		bLink := n.AddLink("b", "r", link)
		n.AddLink("r", "c", link)
		l, _ := n.Host("c").Listen(":9000")
		const total = 1 << 30
		serveBytes(t, clk, l, total, make(chan time.Time, 1))
		serveBytes(t, clk, l, total, make(chan time.Time, 1))
		epB, _ := dialFlow(t, n.Host("b"), "c:9000")
		clk.Go(func() { epB.WriteVirtual(total) })
		clk.Sleep(3 * time.Millisecond) // off B's grid
		epA, fA := dialFlow(t, n.Host("a"), "c:9000")
		fA.ssthresh = fA.window // congestion avoidance from the start: a slow climb
		clk.Go(func() { epA.WriteVirtual(total) })
		clk.Sleep(drop - clk.Elapsed())
		bLink.SetCapacityFactor(0.1)
		clk.Sleep(15*time.Second - drop)

		if ring.Written() > uint64(ring.Retained()) {
			t.Fatalf("flight ring wrapped: %d records written", ring.Written())
		}
		// B reaches its buffer in slow start within a second, so every
		// growth tick after 2 s is A's.
		var fires []time.Duration
		for _, ev := range ring.Snapshot() {
			if ev.Kind == vtime.CoreFire && ev.Site == siteGrowth && ev.At >= int64(2*time.Second) {
				fires = append(fires, time.Duration(ev.At))
			}
		}
		if len(fires) < 2 {
			t.Fatalf("%d growth ticks after 2 s", len(fires))
		}
		t0, rtt := fires[0], fA.rtt
		var gap, afterDrop bool
		for i, at := range fires {
			if (at-t0)%rtt != 0 {
				t.Fatalf("tick at %v is off the grid %v + k·%v", at, t0, rtt)
			}
			if i > 0 && at-fires[i-1] > rtt {
				gap = true
			}
			afterDrop = afterDrop || at > drop
		}
		if !gap || !afterDrop || n.growWakes == 0 || n.growSkipped == 0 || n.growTies != 0 {
			t.Fatalf("slept through a gap: %v; ticked after the drop: %v; %d wakes, %d ticks skipped, %d ties",
				gap, afterDrop, n.growWakes, n.growSkipped, n.growTies)
		}
	})
}

// Streams X and Y start on the same instant, so they share a tick grid.
// X is window-limited: its real ticks each end in a flush at a grid
// instant. Y is disk-capped and asleep. When such a flush drains Y's
// queue, it schedules Y's linger one RTT on — onto Y's next grid
// instant. The tick at that instant was re-armed before the flush ran,
// so it comes first: the window Y keeps when the linger deactivates it
// includes that tick.
func TestFlushScheduledLingerFollowsTick(t *testing.T) {
	clk := vtime.NewSim(1)
	defer func() { FlushObserver, fireHook = nil, nil }()
	clk.Run(func() {
		n := New(clk)
		a := n.AddHost("a", HostConfig{DiskBps: 1 * mbps, DefaultBufferBytes: 1 * mb})
		b := n.AddHost("b", HostConfig{DefaultBufferBytes: 1 * mb})
		n.AddLink("a", "b", LinkConfig{CapacityBps: 1 * gbps, Delay: 10 * time.Millisecond})
		l, _ := b.Listen(":9000")
		const total = 64 * mb
		serveBytes(t, clk, l, total, make(chan time.Time, 1))
		serveBytes(t, clk, l, total, make(chan time.Time, 1))
		epX, fX := dialFlow(t, a, "b:9000")
		epY, fY := dialFlow(t, a, "b:9000")
		epY.SetDiskBound(true)
		lingered := false
		fX.ssthresh = fX.window // congestion avoidance: window-limited for long
		fY.ssthresh = fY.window
		fireHook = func(g *flow, kind uint8) bool {
			if g != fY || kind != evLinger {
				return false
			}
			now := n.clk.Elapsed()
			onGrid := now >= fY.growAt && (now-fY.growAt)%fY.rtt == 0
			want, _ := stepWindow(fY.window, fY.ssthresh, fY.maxWindow, float64(fY.mss), int64((now-fY.growAt)/fY.rtt)+1)
			set := fY.lingerSet
			fY.onLinger()
			lingered = true
			if !onGrid || !set.inFlush || set.at != now-fY.rtt {
				t.Fatalf("linger at %v (scheduled at %+v) is not one RTT after a flush on Y's grid (next tick %v)", now, set, fY.growAt)
			}
			if math.Float64bits(fY.window) != math.Float64bits(want) || fY.growing || n.growTies != 0 {
				t.Errorf("Y deactivated with window %v, growing %v, %d ties; the tick before the linger gives %v",
					fY.window, fY.growing, n.growTies, want)
			}
			return true
		}
		drained := false
		FlushObserver = func(now time.Duration, _ uint64, _ int) {
			// Runs inside the flush.
			if drained || now < time.Second || fY.growEv != 0 || !fY.growing || fY.growAt != now+fY.rtt {
				return
			}
			drained = true
			fY.transmitted = fY.queuedEnd
			fY.completeReady(now)
		}
		clk.Go(func() { epX.WriteVirtual(total) })
		clk.Go(func() { epY.WriteVirtual(total) })
		clk.Sleep(3 * time.Second)
		if !drained || !lingered {
			t.Fatalf("Y drained in a flush on its grid: %v; lingered: %v", drained, lingered)
		}
	})
}
