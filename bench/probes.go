package main

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"esgrid/internal/flight"
	"esgrid/internal/gsi"
	"esgrid/internal/netlogger"
	"esgrid/internal/simnet"
	"esgrid/internal/transport"
	"esgrid/internal/vtime"
)

// A probe drives one layer alone, through its public functions, with a
// fixed iteration count sized to run for about a second on a 2-core
// box. It writes its layer metrics into out.
type probe struct {
	name string
	run  func(cfg runConfig, out map[string]float64) error
}

// simProbes are the layers under a sim op; tcpProbes the ones under a
// tcp op that spans cannot isolate.
var (
	simProbes = []probe{
		{"vtime.event", probeEvent},
		{"vtime.handoff", probeHandoff},
		{"vtime.cohort_wake", probeCohortWake},
		{"simnet.flush", probeFlush},
		{"simnet.virtual_block", probeVirtualBlock},
		{"netlogger.emit", probeEmit},
		{"netlogger.hist_observe", probeHistObserve},
		{"flight.record", probeFlightRecord},
	}
	tcpProbes = []probe{
		{"gsi.handshake", probeHandshake},
		{"gsi.verify", probeVerify},
	}
)

// iterations scales a probe's fixed count down for the smoke test.
func iterations(cfg runConfig, n int) int {
	if cfg.smoke {
		return n/200 + 1
	}
	return n
}

// probeEvent: a bare Sim keeps 1024 events pending; each one that
// fires schedules its successor, until n have fired.
func probeEvent(cfg runConfig, out map[string]float64) error {
	const pending = 1024
	n := iterations(cfg, 9_000_000)
	sim := vtime.NewSim(1)
	fired := 0
	var tick func()
	tick = func() {
		fired++
		if fired+pending <= n {
			sim.Schedule(pending*time.Microsecond, tick)
		}
	}
	t0 := nowNs()
	sim.Run(func() {
		for k := 0; k < pending; k++ {
			sim.Schedule(time.Duration(k+1)*time.Microsecond, tick)
		}
		sim.Sleep(time.Duration(n+2*pending) * time.Microsecond)
	})
	wall := nowNs() - t0
	if fired < n {
		return fmt.Errorf("%d of %d events fired", fired, n)
	}
	out["vtime.event_ns"] = float64(wall) / float64(fired)
	return nil
}

// probeHandoff: 64 managed goroutines sleep in staggered periods, so
// every advance of the clock hands the processor to another goroutine.
func probeHandoff(cfg runConfig, out map[string]float64) error {
	const procs = 64
	each := iterations(cfg, 40_000)
	sim := vtime.NewSim(1)
	t0 := nowNs()
	sim.Run(func() {
		wg := vtime.NewWaitGroup(sim)
		for p := 0; p < procs; p++ {
			period := time.Duration(procs+p) * time.Microsecond
			wg.Go(func() {
				for k := 0; k < each; k++ {
					sim.Sleep(period)
				}
			})
		}
		wg.Wait()
	})
	out["vtime.handoff_ns"] = float64(nowNs()-t0) / float64(procs*each)
	return nil
}

// probeCohortWake: 256 managed goroutines wait on one Cond and are
// woken at one instant by Broadcast, round after round.
func probeCohortWake(cfg runConfig, out map[string]float64) error {
	const cohort = 256
	rounds := iterations(cfg, 10_000)
	sim := vtime.NewSim(1)
	var mu sync.Mutex
	cond := sim.NewCond(&mu)
	round := 0
	t0 := nowNs()
	sim.Run(func() {
		wg := vtime.NewWaitGroup(sim)
		for p := 0; p < cohort; p++ {
			wg.Go(func() {
				mu.Lock()
				for seen := 0; seen < rounds; seen = round {
					for round == seen {
						cond.Wait()
					}
				}
				mu.Unlock()
			})
		}
		for r := 0; r < rounds; r++ {
			sim.Sleep(time.Millisecond)
			mu.Lock()
			round++
			cond.Broadcast()
			mu.Unlock()
		}
		wg.Wait()
	})
	out["vtime.cohort_wake_ns"] = float64(nowNs()-t0) / float64(cohort*rounds)
	return nil
}

// twoHosts builds hosts a and b joined by one link and runs body as the
// simulation's main goroutine.
func twoHosts(link simnet.LinkConfig, body func(sim *vtime.Sim, n *simnet.Net, a, b *simnet.Host) error) error {
	sim := vtime.NewSim(1)
	var err error
	sim.Run(func() {
		n := simnet.New(sim)
		a := n.AddHost("a", simnet.HostConfig{DefaultBufferBytes: 1 << 20})
		b := n.AddHost("b", simnet.HostConfig{DefaultBufferBytes: 1 << 20})
		n.AddLink("a", "b", link)
		err = body(sim, n, a, b)
	})
	return err
}

// sendVirtual opens flows connections from a to b; each writes blocks
// virtual blocks of blockBytes while b drains it.
func sendVirtual(sim *vtime.Sim, a, b *simnet.Host, flows, blocks int, blockBytes int64) error {
	l, err := b.Listen(":9000")
	if err != nil {
		return err
	}
	defer l.Close()
	var mu sync.Mutex
	var errs []error
	fail := func(err error) {
		if err != nil && !errors.Is(err, io.EOF) {
			mu.Lock()
			errs = append(errs, err)
			mu.Unlock()
		}
	}
	wg := vtime.NewWaitGroup(sim)
	for f := 0; f < flows; f++ {
		wg.Go(func() {
			c, err := l.Accept()
			if err != nil {
				fail(err)
				return
			}
			defer c.Close()
			_, err = transport.ReadVirtualFrom(c, int64(blocks)*blockBytes)
			fail(err)
		})
		wg.Go(func() {
			c, err := a.Dial("b:9000")
			if err != nil {
				fail(err)
				return
			}
			defer c.Close()
			for k := 0; k < blocks; k++ {
				if _, err := transport.WriteVirtualTo(c, blockBytes); err != nil {
					fail(err)
					return
				}
			}
		})
	}
	wg.Wait()
	return errors.Join(errs...)
}

// probeFlush: 32 virtual flows share one lossy link, as the streams of
// Table 1 do, so every loss and window change re-runs the allocator
// over the whole component.
func probeFlush(cfg runConfig, out map[string]float64) error {
	blocks := iterations(cfg, 3000)
	return twoHosts(simnet.LinkConfig{CapacityBps: 1e9, Delay: 5 * time.Millisecond, LossRate: 1e-3},
		func(sim *vtime.Sim, n *simnet.Net, a, b *simnet.Host) error {
			t0 := nowNs()
			if err := sendVirtual(sim, a, b, 32, blocks, 1<<20); err != nil {
				return err
			}
			wall := nowNs() - t0
			_, visited := n.AllocStats()
			if visited == 0 {
				return errors.New("allocator visited no flows")
			}
			out["simnet.flush_ns_per_flow"] = float64(wall) / float64(visited)
			return nil
		})
}

// probeVirtualBlock: MODE E-sized virtual blocks on one flow of an
// otherwise idle, loss-free link.
func probeVirtualBlock(cfg runConfig, out map[string]float64) error {
	blocks := iterations(cfg, 800_000)
	return twoHosts(simnet.LinkConfig{CapacityBps: 1e9, Delay: 5 * time.Millisecond},
		func(sim *vtime.Sim, _ *simnet.Net, a, b *simnet.Host) error {
			t0 := nowNs()
			if err := sendVirtual(sim, a, b, 1, blocks, 4<<20); err != nil {
				return err
			}
			out["simnet.virtual_block_ns"] = float64(nowNs()-t0) / float64(blocks)
			return nil
		})
}

// probeEmit: Log.Emit of an event with four key/value pairs, then the
// JSONL export of the log, discarded.
func probeEmit(cfg runConfig, out map[string]float64) error {
	const batch = 20_000
	batches := iterations(cfg, 20*batch) / batch
	if batches == 0 {
		batches = 1
	}
	sim := vtime.NewSim(1)
	t0 := nowNs()
	for b := 0; b < batches; b++ {
		log := netlogger.NewLog(sim)
		for i := 0; i < batch; i++ {
			log.Emit("host-a", "gridftp.retr.end", "path", "pcm.tas.nc", "bytes", "268435456", "streams", "2", "trid", "t1.s4")
		}
		if _, err := io.WriteString(io.Discard, log.JSONL()); err != nil {
			return err
		}
	}
	out["netlogger.emit_ns"] = float64(nowNs()-t0) / float64(batches*batch)
	return nil
}

func probeHistObserve(cfg runConfig, out map[string]float64) error {
	n := iterations(cfg, 45_000_000)
	h := netlogger.NewLogHistogram()
	t0 := nowNs()
	for i := 0; i < n; i++ {
		h.Observe(float64(i%4096+1) * 1e-6)
	}
	out["netlogger.hist_observe_ns"] = float64(nowNs()-t0) / float64(n)
	if h.Count() != int64(n) {
		return fmt.Errorf("histogram holds %d of %d observations", h.Count(), n)
	}
	return nil
}

// probeFlightRecord: one core-ring record and one data-ring record, the
// pair a simulated connection event costs the flight recorder.
func probeFlightRecord(cfg runConfig, out map[string]float64) error {
	n := iterations(cfg, 170_000_000)
	rec := flight.New(0, 0)
	ring := rec.CoreRing()
	t0 := nowNs()
	for i := 0; i < n; i++ {
		ring.Put(vtime.CoreFire, int64(i), int64(i), uint64(i), uint64(i), 0)
		rec.Conn(flight.KConnOpen, int64(i), int64(i))
	}
	out["flight.record_ns"] = float64(nowNs()-t0) / float64(n)
	if st := rec.Stats(); st.CoreWritten != uint64(n) || st.DataWritten != uint64(n) {
		return fmt.Errorf("flight recorder holds %+v, want %d records in each ring", st, n)
	}
	return nil
}

// probeHandshake: GSI mutual authentication, both sides in this
// process, over one loopback connection reused for every handshake.
func probeHandshake(cfg runConfig, out map[string]float64) error {
	n := iterations(cfg, 2200)
	trust, server, _, proxy, err := newIdentities()
	if err != nil {
		return err
	}
	l, err := transport.Real{}.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer l.Close()
	srvErr := make(chan error, 1) // the acceptor sends once and exits
	vtime.Real{}.Go(func() {
		c, err := l.Accept()
		if err != nil {
			srvErr <- err
			return
		}
		defer c.Close()
		srv := &gsi.Config{Identity: server, Trust: trust}
		for i := 0; i < n; i++ {
			if _, err := srv.Server(c); err != nil {
				srvErr <- err
				return
			}
		}
		srvErr <- nil
	})
	c, err := transport.Real{}.Dial(l.Addr().String())
	if err != nil {
		l.Close() // unblocks the acceptor
		<-srvErr
		return err
	}
	cli := &gsi.Config{Identity: proxy, Trust: trust}
	t0 := nowNs()
	var cliErr error
	for i := 0; i < n && cliErr == nil; i++ {
		_, cliErr = cli.Client(c)
	}
	wall := nowNs() - t0
	c.Close() // on a client error this ends the acceptor's read
	if err := errors.Join(cliErr, <-srvErr); err != nil {
		return err
	}
	out["gsi.handshake_us"] = float64(wall) / 1e3 / float64(n)
	return nil
}

// probeVerify: TrustStore.Verify of a delegated (two-link) chain.
func probeVerify(cfg runConfig, out map[string]float64) error {
	n := iterations(cfg, 7500)
	trust, _, _, proxy, err := newIdentities()
	if err != nil {
		return err
	}
	now := wallNow()
	t0 := nowNs()
	for i := 0; i < n; i++ {
		if _, err := trust.Verify(proxy.Credential, now); err != nil {
			return err
		}
	}
	out["gsi.verify_us"] = float64(nowNs()-t0) / 1e3 / float64(n)
	return nil
}
