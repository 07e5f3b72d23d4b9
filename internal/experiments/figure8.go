package experiments

import (
	"fmt"
	"sort"
	"time"

	"esgrid/internal/chaos"
	"esgrid/internal/flight"
	"esgrid/internal/grid"
	"esgrid/internal/gridftp"
	"esgrid/internal/netlogger"
	"esgrid/internal/simnet"
)

// Figure8Config parameterizes the 14-hour reliability experiment of §7 /
// Figure 8: a Linux workstation with a 100 Mb/s NIC in Dallas repeatedly
// transferring a 2 GB file to a similar workstation at Argonne over
// commodity internet, with parallelism varied up to eight streams,
// bandwidth plateauing near 80 Mb/s (disk limited), and outages — a
// SCinet power failure, DNS problems, backbone problems — interrupting
// transfers that GridFTP then restarts.
type Figure8Config struct {
	Seed        int64
	Duration    time.Duration // paper: ~14 hours
	FileMB      int64         // paper: 2 GB
	NICBps      float64       // paper: 100 Mb/s
	DiskBps     float64       // paper: ~80 Mb/s effective
	RTT         time.Duration // Dallas <-> Chicago commodity path
	LossRate    float64       // commodity internet packet loss
	BufferBytes int
	// ParallelismSchedule cycles as the run progresses (paper: "varying
	// levels of parallelism, up to a maximum of eight streams").
	ParallelismSchedule []int
	// CacheDataChannels is the post-SC'00 ablation (F8b): reusing data
	// channels removes the inter-transfer dips.
	CacheDataChannels bool
	// Faults enables the outage schedule.
	Faults bool
	// Schedule overrides the default outage narrative with an explicit
	// chaos schedule (link target "commodity"). Nil with Faults set means
	// Figure8FaultSchedule(Duration).
	Schedule chaos.Schedule
	// HandshakeCost per side for each new session.
	HandshakeCost time.Duration
	// Bucket is the series resolution (default 60s).
	Bucket time.Duration
}

// DefaultFigure8Config reproduces the paper's run.
func DefaultFigure8Config() Figure8Config {
	return Figure8Config{
		Seed:                7,
		Duration:            14 * time.Hour,
		FileMB:              2048,
		NICBps:              100e6,
		DiskBps:             82e6,
		RTT:                 24 * time.Millisecond,
		LossRate:            3e-4,
		BufferBytes:         1 << 20,
		ParallelismSchedule: []int{1, 2, 4, 8, 4, 8, 2},
		Faults:              true,
		HandshakeCost:       450 * time.Millisecond,
		Bucket:              time.Minute,
	}
}

// Figure8Result carries the bandwidth-over-time series and summary
// statistics of the run.
type Figure8Result struct {
	Config      Figure8Config
	Series      netlogger.Series // bits/s per bucket
	MeanBps     float64
	PlateauBps  float64 // 90th percentile bucket rate
	Transfers   int
	Restarts    int
	ZeroBuckets int // buckets with no progress (outages + dips)
	// Flight is the run's always-on flight recorder; TestEqualSeed
	// compares its dump byte-for-byte between two equal-seed runs.
	Flight *flight.Recorder
}

// Rows summarizes the run.
func (r Figure8Result) Rows() []Row {
	return []Row{
		{"Duration", durSeconds(r.Config.Duration)},
		{"Completed transfers of 2 GB file", fmt.Sprint(r.Transfers)},
		{"Transfer restarts after failures", fmt.Sprint(r.Restarts)},
		{"Mean bandwidth", mbps(r.MeanBps)},
		{"Plateau bandwidth (p90 bucket)", mbps(r.PlateauBps)},
		{"Buckets with zero progress", fmt.Sprint(r.ZeroBuckets)},
	}
}

// Plot renders the Figure 8 analog chart.
func (r Figure8Result) Plot(width, height int) string {
	series := make(netlogger.Series, len(r.Series))
	for i, p := range r.Series {
		series[i] = netlogger.Point{T: p.T, V: p.V / 1e6}
	}
	return series.Plot(
		fmt.Sprintf("Figure 8: aggregate parallel bandwidth over %s (Mb/s)", r.Config.Duration),
		"Mb/s", width, height)
}

// RunFigure8 executes the experiment.
func RunFigure8(cfg Figure8Config) (Figure8Result, error) {
	if cfg.Duration <= 0 || cfg.FileMB <= 0 {
		return Figure8Result{}, fmt.Errorf("experiments: bad figure8 config %+v", cfg)
	}
	if cfg.Bucket <= 0 {
		cfg.Bucket = time.Minute
	}
	if len(cfg.ParallelismSchedule) == 0 {
		cfg.ParallelismSchedule = []int{8}
	}
	g := newRig(cfg.Seed, withFlight)
	clk, n := g.Clock, g.Net

	// Dallas workstation -> commodity internet -> ANL workstation. The
	// destination's disk bounds the useful rate (§7: "most likely due to
	// disk bandwidth limitations").
	n.AddHost("dallas", simnet.HostConfig{DefaultBufferBytes: 64 << 10})
	n.AddHost("anl", simnet.HostConfig{DefaultBufferBytes: 64 << 10, DiskBps: cfg.DiskBps})
	n.AddNode("isp")
	n.AddLink("dallas", "isp", simnet.LinkConfig{CapacityBps: cfg.NICBps, Delay: cfg.RTT / 4, LossRate: cfg.LossRate / 2})
	commodity := n.AddLink("isp", "anl", simnet.LinkConfig{CapacityBps: 155e6, Delay: cfg.RTT / 4, LossRate: cfg.LossRate / 2})

	file := cfg.FileMB << 20
	store := grid.VirtualStore(file, "climate-2gb.dat")

	res := Figure8Result{Config: cfg, Flight: g.rec}
	err := g.Run(func() {
		if !g.Serve("dallas", gridftp.Config{Store: store, DiskBound: true}) {
			return
		}

		meter := netlogger.NewMeter(clk, time.Second, func() float64 {
			return n.TotalBytesBetween("dallas", "anl")
		})

		if cfg.Faults {
			sched := cfg.Schedule
			if sched == nil {
				sched = Figure8FaultSchedule(cfg.Duration)
			}
			targets := chaos.NewTargets().AddLink("commodity", commodity).SetDNS(n)
			if g.Fail(chaos.NewRunner(clk, nil, targets).Apply(sched)) {
				return
			}
		}

		stop := clk.Now().Add(cfg.Duration)
		segment := cfg.Duration / time.Duration(len(cfg.ParallelismSchedule))
		start := clk.Now()
		var cached *gridftp.Client
		cachedP := 0
		for clk.Now().Before(stop) {
			idx := int(clk.Now().Sub(start) / segment)
			if idx >= len(cfg.ParallelismSchedule) {
				idx = len(cfg.ParallelismSchedule) - 1
			}
			p := cfg.ParallelismSchedule[idx]

			sink := gridftp.NewVirtualSink(file)
			attempts := 0
			// Reuse the session (and its cached data channels) when the
			// ablation enables it and parallelism is unchanged.
			if cached != nil && cachedP != p {
				cached.Close()
				cached = nil
			}
			mk := func() (*gridftp.Client, error) {
				if cached != nil {
					c := cached
					cached = nil
					return c, nil
				}
				return g.Dial("anl", "dallas:2811", gridftp.ClientConfig{
					Parallelism:       p,
					BufferBytes:       cfg.BufferBytes,
					CacheDataChannels: cfg.CacheDataChannels,
					DiskBound:         true,
				})
			}
			var cli *gridftp.Client
			var xferErr error
			for {
				c, err := mk()
				if err != nil {
					xferErr = err
				} else {
					cli = c
					missing := gridftp.MissingRanges(sink, file)
					if len(missing) == 1 && missing[0].Off == 0 && missing[0].Len == file {
						_, xferErr = cli.Get("climate-2gb.dat", sink)
					} else if len(missing) > 0 {
						_, xferErr = cli.GetRanges("climate-2gb.dat", sink, missing)
					} else {
						xferErr = nil
					}
				}
				if xferErr == nil {
					break
				}
				attempts++
				res.Restarts++
				if cli != nil {
					cli.Close()
					cli = nil
				}
				if !clk.Now().Before(stop) || attempts > 200 {
					break
				}
				clk.Sleep(5 * time.Second) // reconnection backoff
			}
			if xferErr == nil && sink.Complete() == nil {
				res.Transfers++
			}
			if cli != nil {
				if cfg.CacheDataChannels {
					cached = cli
					cachedP = p
				} else {
					cli.Close()
				}
			}
		}
		if cached != nil {
			cached.Close()
		}
		meter.Stop()
		res.Series = meter.RateSeries(cfg.Bucket)
		for i := range res.Series {
			res.Series[i].V *= 8
		}
		res.MeanBps = meter.AverageRate() * 8
		// Values returns a fresh copy, so it is sorted in place.
		vals := res.Series.Values()
		sort.Float64s(vals)
		res.PlateauBps = netlogger.Quantile(vals, 0.9)
		for _, v := range vals {
			if v < 1e6 { // under 1 Mb/s counts as a stall bucket
				res.ZeroBuckets++
			}
		}
	})
	return res, err
}

// Figure8FaultSchedule is the November 7, 2000 outage narrative the paper
// tells — a SCinet power failure, DNS problems, and backbone problems —
// expressed as a declarative chaos schedule placed proportionally across
// a run of length d. The commodity internet link is target "commodity".
func Figure8FaultSchedule(d time.Duration) chaos.Schedule {
	at := func(frac float64) time.Duration { return time.Duration(float64(d) * frac) }
	return chaos.Schedule{
		// Power failure for the SC network: connections die outright.
		{Kind: chaos.KindLinkDown, Target: "commodity", Start: at(0.18), Duration: at(0.02)},
		// DNS problems: no new sessions for a while.
		{Kind: chaos.KindDNSOutage, Start: at(0.42), Duration: at(0.03)},
		// Backbone problems on the exhibition floor: deep capacity loss.
		{Kind: chaos.KindLinkDegrade, Target: "commodity", Start: at(0.65), Duration: at(0.05), Factor: 0.1},
	}
}
