package experiments

import (
	"fmt"
	"sync"
	"time"

	"esgrid/internal/flight"
	"esgrid/internal/grid"
	"esgrid/internal/gridftp"
	"esgrid/internal/gsi"
	"esgrid/internal/netlogger"
	"esgrid/internal/simnet"
	"esgrid/internal/vtime"
)

// Table1Config parameterizes the SC'00 striped-transfer experiment (§7,
// Table 1): eight Linux workstations in the Dallas convention center
// sending a 2 GB file, partitioned 256 MB per server, to eight
// workstations at LBNL, with a new copy of each partition started when
// the previous is 25% complete, at most four simultaneous TCP streams per
// server (32 total), 1 MB tuned buffers, across the HSCC/NTON
// infrastructure of Figure 7 (2.5 Gb/s OC-48, 1.5 Gb/s allowed).
type Table1Config struct {
	Seed          int64
	Servers       int           // striped servers per side (paper: 8)
	MaxStreams    int           // max simultaneous transfers per server (paper: 4)
	PartitionMB   int64         // per-server file partition (paper: 256 = 2 GB / 8)
	BufferBytes   int           // socket buffer (paper: 1 MB)
	Duration      time.Duration // metered span (paper: 1 hour)
	AllowedWANBps float64       // SCinet allowance (paper: 1.5 Gb/s)
	WANCapBps     float64       // underlying OC-48 (2.5 Gb/s)
	RTT           time.Duration // Dallas <-> Berkeley (paper: 10-20 ms)
	// HandshakeCost is the per-side GSI public-key time; the SC'00
	// implementation re-authenticated every transfer (§7: "costly
	// breakdown, restart, and re-authentication").
	HandshakeCost time.Duration
	// ShowFloorFaults replays the exhibition-floor conditions the paper
	// reports (§7/Figure 8 narrative: power failure, DNS problems,
	// backbone problems) scaled to the metered duration.
	ShowFloorFaults bool
	// CacheDataChannels enables the post-SC'00 fix (ablation; the Table 1
	// run itself used the caching-free implementation).
	CacheDataChannels bool
	// Coalesce is the interrupt-coalescing factor of the GigE NICs
	// (paper: "we were, in fact, using interrupt coalescing at SC").
	Coalesce float64
	// WANLossRate is the baseline per-packet loss probability on the
	// shared SCinet/HSCC path during clean periods.
	WANLossRate float64
	// Show-floor congestion is bursty: the path alternates between clean
	// spells (WANLossRate) and congestion episodes (CongestedLossRate),
	// with exponentially distributed dwell times. This is what separates
	// the 0.1 s and 5 s peaks from the one-hour sustained average in
	// Table 1.
	CongestedLossRate  float64
	CleanDwellMean     time.Duration
	CongestedDwellMean time.Duration
}

// DefaultTable1Config reproduces the paper's configuration.
func DefaultTable1Config() Table1Config {
	return Table1Config{
		Seed:               2000,
		Servers:            8,
		MaxStreams:         4,
		PartitionMB:        256,
		BufferBytes:        1 << 20,
		Duration:           time.Hour,
		AllowedWANBps:      2.5e9, // administrative 1.5 Gb/s was not policed
		WANCapBps:          2.5e9,
		RTT:                15 * time.Millisecond,
		HandshakeCost:      450 * time.Millisecond,
		ShowFloorFaults:    true,
		Coalesce:           4,
		WANLossRate:        1.4e-3,
		CongestedLossRate:  5e-3,
		CleanDwellMean:     4 * time.Second,
		CongestedDwellMean: 12 * time.Second,
	}
}

// Table1Result mirrors the rows of Table 1.
type Table1Result struct {
	Config           Table1Config
	PeakBps100ms     float64
	PeakBps5s        float64
	SustainedBps     float64
	TotalBytes       float64
	TransfersStarted int
	TransfersDone    int
	Series           netlogger.Series // 5s aggregate-rate series
	// Flight is the run's always-on flight recorder; TestEqualSeed
	// compares its dump byte-for-byte between two equal-seed runs.
	Flight *flight.Recorder
}

// Rows renders the result as the paper's table rows.
func (r Table1Result) Rows() []Row {
	return []Row{
		{"Striped servers at source location", fmt.Sprint(r.Config.Servers)},
		{"Striped servers at destination location", fmt.Sprint(r.Config.Servers)},
		{"Maximum simultaneous TCP streams per server", fmt.Sprint(r.Config.MaxStreams)},
		{"Maximum simultaneous TCP streams overall", fmt.Sprint(r.Config.Servers * r.Config.MaxStreams)},
		{"Peak transfer rate over 0.1 seconds", gbps(r.PeakBps100ms)},
		{"Peak transfer rate over 5 seconds", gbps(r.PeakBps5s)},
		{fmt.Sprintf("Sustained transfer rate over %s", durSeconds(r.Config.Duration)), mbps(r.SustainedBps)},
		{fmt.Sprintf("Total data transferred in %s", durSeconds(r.Config.Duration)), fmt.Sprintf("%.1f Gbytes", r.TotalBytes/1e9)},
	}
}

// sc00CPU models the SC'00 workstations: year-2000 hosts whose gigabit
// TCP path runs out of CPU well below line rate (§7: "the CPU was running
// at near 100% capacity").
func sc00CPU(coalesce float64) *simnet.CPUConfig {
	return &simnet.CPUConfig{
		PerByte:  2.8e-8, // copy/checksum path: ~36 MB/s alone
		PerFrame: 1.1e-5, // interrupt service: ~90k frames/s alone
		Coalesce: coalesce,
	}
}

// RunTable1 executes the experiment and returns the measured rows.
func RunTable1(cfg Table1Config) (Table1Result, error) {
	if cfg.Servers <= 0 || cfg.MaxStreams <= 0 || cfg.Duration <= 0 {
		return Table1Result{}, fmt.Errorf("experiments: bad table1 config %+v", cfg)
	}
	g := newRig(cfg.Seed, withFlight)
	clk, n := g.Clock, g.Net

	// Topology per §7 and Figure 7: cluster switches dual-bonded to exit
	// routers, OC-48 across HSCC/NTON, a policy cap at the SCinet
	// allowance. GigE NICs as host access links.
	n.AddNode("dallas-sw")
	n.AddNode("berkeley-sw")
	n.AddNode("scinet")
	n.AddLink("dallas-sw", "scinet", simnet.LinkConfig{CapacityBps: 2e9, Delay: time.Millisecond / 2})
	// The allowance link models the 1.5 Gb/s share of the 2.5 Gb/s OC-48.
	wanCap := cfg.AllowedWANBps
	if wanCap <= 0 || wanCap > cfg.WANCapBps {
		wanCap = cfg.WANCapBps
	}
	wan := n.AddLink("scinet", "nton", simnet.LinkConfig{CapacityBps: wanCap, Delay: cfg.RTT/2 - 2*time.Millisecond, LossRate: cfg.WANLossRate})
	n.AddLink("nton", "berkeley-sw", simnet.LinkConfig{CapacityBps: 2e9, Delay: time.Millisecond / 2})

	cpu := sc00CPU(cfg.Coalesce)
	hostCfg := simnet.HostConfig{CPU: cpu, DefaultBufferBytes: 64 << 10}
	srcNames := make([]string, cfg.Servers)
	dstNames := make([]string, cfg.Servers)
	for i := 0; i < cfg.Servers; i++ {
		srcNames[i] = fmt.Sprintf("dal%02d", i)
		dstNames[i] = fmt.Sprintf("lbl%02d", i)
		n.AddHost(srcNames[i], hostCfg)
		n.AddLink(srcNames[i], "dallas-sw", simnet.LinkConfig{CapacityBps: 1e9, Delay: 100 * time.Microsecond})
		n.AddHost(dstNames[i], hostCfg)
		n.AddLink(dstNames[i], "berkeley-sw", simnet.LinkConfig{CapacityBps: 1e9, Delay: 100 * time.Microsecond})
	}

	// GSI: one CA; every transfer authenticates (no session reuse in the
	// SC'00 implementation).
	ca, err := gsi.NewCA("SC00-CA")
	if err != nil {
		return Table1Result{}, err
	}
	trust := gsi.NewTrustStore(ca)
	partition := cfg.PartitionMB << 20

	res := Table1Result{Config: cfg, Flight: g.rec}

	store := grid.VirtualStore(partition, "partition.dat")

	err = g.Run(func() {
		// One GridFTP server per Dallas host serving its partition.
		for _, src := range srcNames {
			id, err := ca.Issue("/CN="+src, vtime.Epoch, 240*time.Hour)
			if g.Fail(err) || !g.Serve(src, gridftp.Config{
				Store: store,
				Auth:  &gsi.Config{Identity: id, Trust: trust, Clock: clk, HandshakeCost: cfg.HandshakeCost},
			}) {
				return
			}
		}

		// Aggregate byte meter across all pairs, 0.1 s samples as the
		// SciNET instrumentation provided.
		sample := func() float64 {
			var total float64
			for i := range srcNames {
				total += n.TotalBytesBetween(srcNames[i], dstNames[i])
			}
			return total
		}
		meter := netlogger.NewMeter(clk, 100*time.Millisecond, sample)
		// Table 1 meters a fixed window; transfers still in flight when
		// it closes drain outside the measurement.
		clk.AfterFunc(cfg.Duration, meter.Stop)

		if cfg.ShowFloorFaults {
			scheduleShowFloor(clk, n, wan, cfg.Duration)
		}
		if cfg.CongestedLossRate > cfg.WANLossRate && cfg.CleanDwellMean > 0 && cfg.CongestedDwellMean > 0 {
			startCongestionProcess(clk, wan, cfg)
		}

		stop := clk.Now().Add(cfg.Duration)
		wg := vtime.NewWaitGroup(clk)
		for i := 0; i < cfg.Servers; i++ {
			i := i
			wg.Go(func() {
				runPipelinedPair(g, ca, trust, cfg, srcNames[i], dstNames[i], partition, stop, &res)
			})
		}
		wg.Wait()
		meter.Stop()

		res.PeakBps100ms = meter.PeakRate(100*time.Millisecond) * 8
		res.PeakBps5s = meter.PeakRate(5*time.Second) * 8
		res.SustainedBps = meter.AverageRate() * 8
		res.TotalBytes = meter.Total()
		res.Series = meter.RateSeries(5 * time.Second)
		for i := range res.Series {
			res.Series[i].V *= 8 // bytes/s -> bits/s
		}
	})
	return res, err
}

// runPipelinedPair reproduces the §7 workload for one server pair: start
// a new copy of the partition whenever the newest transfer is 25%
// complete, keeping at most MaxStreams transfers in flight, until the
// metering window closes.
func runPipelinedPair(g *rig, ca *gsi.CA, trust *gsi.TrustStore,
	cfg Table1Config, src, dst string, partition int64, stop time.Time,
	res *Table1Result) {

	clk := g.Clock
	id, err := ca.Issue("/CN=client-"+dst, vtime.Epoch, 240*time.Hour)
	if g.Fail(err) {
		return
	}
	auth := &gsi.Config{Identity: id, Trust: trust, Clock: clk, HandshakeCost: cfg.HandshakeCost}

	inflight := 0
	var imu sync.Mutex
	cond := clk.NewCond(&imu)

	// newest tracks the most recently started transfer's sink so the
	// spawner can watch its 25% threshold.
	var newest *gridftp.VirtualSink
	done := vtime.NewWaitGroup(clk)
	for clk.Now().Before(stop) {
		imu.Lock()
		for inflight >= cfg.MaxStreams {
			cond.Wait()
		}
		inflight++
		imu.Unlock()

		sink := gridftp.NewVirtualSink(partition)
		imu.Lock()
		newest = sink
		imu.Unlock()
		res.TransfersStarted++

		done.Go(func() {
			defer func() {
				imu.Lock()
				inflight--
				cond.Broadcast()
				imu.Unlock()
			}()
			cli, err := g.Dial(dst, src+":2811", gridftp.ClientConfig{
				Auth:              auth,
				Parallelism:       1,
				BufferBytes:       cfg.BufferBytes,
				CacheDataChannels: cfg.CacheDataChannels,
			})
			if err != nil {
				clk.Sleep(2 * time.Second) // outage: retry later
				return
			}
			defer cli.Close()
			if _, err := cli.Get("partition.dat", sink); err != nil {
				return // lost to a fault; the pipeline starts another
			}
			res.TransfersDone++
		})

		// Wait until the newest transfer reaches 25% complete before
		// starting the next copy of the partition (§7).
		for clk.Now().Before(stop) {
			clk.Sleep(500 * time.Millisecond)
			imu.Lock()
			cur := newest
			idle := inflight == 0
			imu.Unlock()
			var got int64
			for _, e := range cur.Received() {
				got += e.Len
			}
			if got*4 >= partition || idle {
				break
			}
		}
	}
	done.Wait()
}

// startCongestionProcess alternates the WAN between clean spells and
// congestion episodes with exponential dwell times.
func startCongestionProcess(clk *vtime.Sim, wan *simnet.Link, cfg Table1Config) {
	congested := false
	var tick func()
	tick = func() {
		congested = !congested
		var dwell time.Duration
		if congested {
			wan.SetLossRate(cfg.CongestedLossRate)
			dwell = time.Duration(clk.RandExp(float64(cfg.CongestedDwellMean)))
		} else {
			wan.SetLossRate(cfg.WANLossRate)
			dwell = time.Duration(clk.RandExp(float64(cfg.CleanDwellMean)))
		}
		clk.AfterFunc(dwell, tick)
	}
	clk.AfterFunc(time.Duration(clk.RandExp(float64(cfg.CleanDwellMean))), tick)
}

// scheduleShowFloor injects the exhibition conditions the paper reports,
// scaled to the run duration: a brief SCinet power failure (connections
// reset), a DNS outage, and a backbone degradation.
func scheduleShowFloor(clk *vtime.Sim, n *simnet.Net, wan *simnet.Link, d time.Duration) {
	at := func(frac float64) time.Duration { return time.Duration(float64(d) * frac) }
	// Power failure: ~2% of the run, connections die.
	clk.AfterFunc(at(0.30), func() { wan.SetUp(false, true) })
	clk.AfterFunc(at(0.32), func() { wan.SetUp(true, true) })
	// DNS problems: ~5% of the run, no new sessions.
	clk.AfterFunc(at(0.55), func() { n.SetDNS(false) })
	clk.AfterFunc(at(0.60), func() { n.SetDNS(true) })
	// Backbone problems: ~10% of the run at one-quarter capacity.
	clk.AfterFunc(at(0.75), func() { wan.SetCapacityFactor(0.25) })
	clk.AfterFunc(at(0.85), func() { wan.SetCapacityFactor(1) })
}
