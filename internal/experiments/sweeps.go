package experiments

import (
	"fmt"
	"math"
	"time"

	"esgrid/internal/grid"
	"esgrid/internal/gridftp"
	"esgrid/internal/nws"
	"esgrid/internal/simnet"
)

// twoHosts is the src→dst path most sweeps measure: two hosts with
// 64 KB default buffers on one link.
func twoHosts(seed int64, link simnet.LinkConfig) *rig {
	g := newRig(seed)
	g.Net.AddHost("src", simnet.HostConfig{DefaultBufferBytes: 64 << 10})
	g.Net.AddHost("dst", simnet.HostConfig{DefaultBufferBytes: 64 << 10})
	g.Net.AddLink("src", "dst", link)
	return g
}

// getRate serves a size-byte file from srv with cfg (its Store filled
// in) and returns the rate in bits/s at which dst fetches it with cli.
func getRate(g *rig, srv string, cfg gridftp.Config, size int64, cli gridftp.ClientConfig) (float64, error) {
	cfg.Store = grid.VirtualStore(size, "f")
	var rate float64
	err := g.Run(func() {
		if !g.Serve(srv, cfg) {
			return
		}
		st, err := g.Fetch("dst", srv+":2811", "f", size, cli)
		if !g.Fail(err) {
			rate = st.Bps()
		}
	})
	return rate, err
}

// measureGet runs one GridFTP fetch on a fresh two-host topology and
// returns the achieved rate in bits/s.
func measureGet(seed int64, linkBps float64, owd time.Duration, loss float64,
	fileBytes int64, parallelism, buffer int) (float64, error) {
	g := twoHosts(seed, simnet.LinkConfig{CapacityBps: linkBps, Delay: owd, LossRate: loss})
	return getRate(g, "src", gridftp.Config{}, fileBytes, gridftp.ClientConfig{Parallelism: parallelism, BufferBytes: buffer})
}

// --- S1: parallel TCP streams under loss (§6.1, Qiu et al.) ---

// ParallelSweepResult maps stream counts to achieved rates, with and
// without loss.
type ParallelSweepResult struct {
	Streams   []int
	LossyBps  []float64
	CleanBps  []float64
	LossRate  float64
	FileBytes int64
}

// RunParallelSweep measures rate vs parallelism on a clean and a lossy
// 622 Mb/s, 30 ms-RTT path.
func RunParallelSweep(seed int64, fileMB int64, streams []int, loss float64) (ParallelSweepResult, error) {
	res := ParallelSweepResult{Streams: streams, LossRate: loss, FileBytes: fileMB << 20}
	for _, p := range streams {
		lossy, err := measureGet(seed, 622e6, 15*time.Millisecond, loss, res.FileBytes, p, 1<<20)
		if err != nil {
			return res, err
		}
		clean, err := measureGet(seed+1, 622e6, 15*time.Millisecond, 0, res.FileBytes, p, 1<<20)
		if err != nil {
			return res, err
		}
		res.LossyBps = append(res.LossyBps, lossy)
		res.CleanBps = append(res.CleanBps, clean)
	}
	return res, nil
}

// Rows formats the sweep.
func (r ParallelSweepResult) Rows() []Row {
	rows := make([]Row, 0, len(r.Streams))
	for i, p := range r.Streams {
		rows = append(rows, Row{
			Label: fmt.Sprintf("%2d stream(s)", p),
			Value: fmt.Sprintf("lossy %-12s clean %s", mbps(r.LossyBps[i]), mbps(r.CleanBps[i])),
		})
	}
	return rows
}

// --- S2: TCP buffer (bandwidth x delay) sweep (§7) ---

// BufferSweepResult maps buffer sizes to rates at several RTTs.
type BufferSweepResult struct {
	Buffers []int
	RTTs    []time.Duration
	// Bps[i][j] is the rate with Buffers[i] at RTTs[j].
	Bps [][]float64
}

// RunBufferSweep measures rate vs socket buffer on a 622 Mb/s path.
func RunBufferSweep(seed int64, fileMB int64, buffers []int, rtts []time.Duration) (BufferSweepResult, error) {
	res := BufferSweepResult{Buffers: buffers, RTTs: rtts}
	for _, b := range buffers {
		var row []float64
		for _, rtt := range rtts {
			rate, err := measureGet(seed, 622e6, rtt/2, 0, fileMB<<20, 1, b)
			if err != nil {
				return res, err
			}
			row = append(row, rate)
		}
		res.Bps = append(res.Bps, row)
	}
	return res, nil
}

// Rows formats the sweep.
func (r BufferSweepResult) Rows() []Row {
	rows := make([]Row, 0, len(r.Buffers))
	for i, b := range r.Buffers {
		val := ""
		for j, rtt := range r.RTTs {
			val += fmt.Sprintf("rtt=%-4s %-12s", rtt, mbps(r.Bps[i][j]))
		}
		rows = append(rows, Row{Label: fmt.Sprintf("buffer %4d KB", b>>10), Value: val})
	}
	return rows
}

// --- S3: striping across hosts (§6.1) ---

// StripeSweepResult maps stripe width to rate.
type StripeSweepResult struct {
	Stripes []int
	Bps     []float64
}

// RunStripeSweep measures a striped retrieval with k stripe nodes whose
// access links are 200 Mb/s each behind a 1.6 Gb/s WAN.
func RunStripeSweep(seed int64, fileMB int64, widths []int) (StripeSweepResult, error) {
	res := StripeSweepResult{Stripes: widths}
	for _, k := range widths {
		rate, err := measureStriped(seed, fileMB<<20, k)
		if err != nil {
			return res, err
		}
		res.Bps = append(res.Bps, rate)
	}
	return res, nil
}

func measureStriped(seed int64, fileBytes int64, k int) (float64, error) {
	g := newRig(seed)
	n := g.Net
	n.AddNode("wan")
	n.AddHost("dst", simnet.HostConfig{DefaultBufferBytes: 4 << 20})
	n.AddLink("dst", "wan", simnet.LinkConfig{CapacityBps: 1.6e9, Delay: 5 * time.Millisecond})
	n.AddHost("ctl", simnet.HostConfig{DefaultBufferBytes: 4 << 20})
	n.AddLink("ctl", "wan", simnet.LinkConfig{CapacityBps: 622e6, Delay: 5 * time.Millisecond})
	var nodes []gridftp.DataNode
	for i := 0; i < k; i++ {
		name := fmt.Sprintf("node%02d", i)
		h := n.AddHost(name, simnet.HostConfig{DefaultBufferBytes: 4 << 20})
		n.AddLink(name, "wan", simnet.LinkConfig{CapacityBps: 200e6, Delay: 5 * time.Millisecond})
		nodes = append(nodes, gridftp.DataNode{Net: h, Host: name})
	}
	return getRate(g, "ctl", gridftp.Config{DataNodes: nodes}, fileBytes,
		gridftp.ClientConfig{Parallelism: 2, Striped: true, BufferBytes: 4 << 20})
}

// Rows formats the sweep.
func (r StripeSweepResult) Rows() []Row {
	rows := make([]Row, 0, len(r.Stripes))
	for i, k := range r.Stripes {
		rows = append(rows, Row{Label: fmt.Sprintf("%d stripe node(s)", k), Value: mbps(r.Bps[i])})
	}
	return rows
}

// --- S7: 64-bit large file support (§7) ---

// LargeFileResult compares one 8 GB session against the pre-64-bit
// workaround of four 2 GB-capped sessions.
type LargeFileResult struct {
	SingleBps  float64
	ChunkedBps float64
	FileBytes  int64
}

// RunLargeFile measures both strategies on a gigabit path.
func RunLargeFile(seed int64, gb int64) (LargeFileResult, error) {
	res := LargeFileResult{FileBytes: gb << 30}
	single, err := measureGet(seed, 1e9, 10*time.Millisecond, 0, res.FileBytes, 4, 4<<20)
	if err != nil {
		return res, err
	}
	res.SingleBps = single

	// Chunked: a fresh session (dial + slow start) per 2 GB chunk.
	g := twoHosts(seed+1, simnet.LinkConfig{CapacityBps: 1e9, Delay: 10 * time.Millisecond})
	const chunk = int64(2047 << 20) // just under the 2^31 limit
	nChunks := int((res.FileBytes + chunk - 1) / chunk)
	store := grid.VirtualStore(res.FileBytes, "f")
	err = g.Run(func() {
		if !g.Serve("src", gridftp.Config{Store: store}) {
			return
		}
		t0 := g.Clock.Now()
		sink := gridftp.NewVirtualSink(res.FileBytes)
		for i := 0; i < nChunks; i++ {
			cli, err := g.Dial("dst", "src:2811", gridftp.ClientConfig{Parallelism: 4, BufferBytes: 4 << 20})
			if g.Fail(err) {
				return
			}
			off := int64(i) * chunk
			size := chunk
			if off+size > res.FileBytes {
				size = res.FileBytes - off
			}
			_, err = cli.GetRanges("f", sink, []gridftp.Extent{{Off: off, Len: size}})
			cli.Close()
			if g.Fail(err) {
				return
			}
		}
		if !g.Fail(sink.Complete()) {
			res.ChunkedBps = float64(res.FileBytes) * 8 / g.Clock.Now().Sub(t0).Seconds()
		}
	})
	return res, err
}

// Rows formats the comparison.
func (r LargeFileResult) Rows() []Row {
	return []Row{
		{fmt.Sprintf("single %d GB session (64-bit offsets)", r.FileBytes>>30), mbps(r.SingleBps)},
		{"chunked into <2 GB sessions (SC'00 limit)", mbps(r.ChunkedBps)},
	}
}

// --- S8: CPU model ablation — interrupt coalescing and jumbo frames (§7) ---

// CPUModelResult maps host configurations to achieved single-host rates.
type CPUModelResult struct {
	Labels []string
	Bps    []float64
}

// RunCPUModel measures a gigabit host's CPU-bound throughput under the
// remedies §7 discusses.
func RunCPUModel(seed int64, fileMB int64) (CPUModelResult, error) {
	cases := []struct {
		label    string
		coalesce float64
		mss      int
	}{
		{"no interrupt coalescing", 1, 0},
		{"interrupt coalescing x4", 4, 0},
		{"interrupt coalescing x16", 16, 0},
		{"jumbo frames, no coalescing", 1, simnet.JumboMSS},
	}
	var res CPUModelResult
	for _, c := range cases {
		g := newRig(seed)
		g.Net.AddHost("src", simnet.HostConfig{CPU: simnet.GigabitHostCPU(c.coalesce), DefaultBufferBytes: 4 << 20, MSS: c.mss})
		g.Net.AddHost("dst", simnet.HostConfig{DefaultBufferBytes: 4 << 20, MSS: c.mss})
		g.Net.AddLink("src", "dst", simnet.LinkConfig{CapacityBps: 1e9, Delay: time.Millisecond})
		rate, err := getRate(g, "src", gridftp.Config{}, fileMB<<20, gridftp.ClientConfig{Parallelism: 4, BufferBytes: 4 << 20})
		if err != nil {
			return res, err
		}
		res.Labels = append(res.Labels, c.label)
		res.Bps = append(res.Bps, rate)
	}
	return res, nil
}

// Rows formats the ablation.
func (r CPUModelResult) Rows() []Row {
	rows := make([]Row, len(r.Labels))
	for i := range r.Labels {
		rows[i] = Row{Label: r.Labels[i], Value: mbps(r.Bps[i])}
	}
	return rows
}

// --- S9: NWS forecaster accuracy (§5) ---

// ForecasterResult reports per-method mean absolute error on a WAN-like
// bandwidth series, normalized by the series mean.
type ForecasterResult struct {
	Methods []string
	NMAE    []float64
	Best    string
}

// RunForecasters evaluates the battery on a synthetic series with the
// character of WAN available-bandwidth traces: diurnal drift, congestion
// episodes, measurement noise.
func RunForecasters(seed int64, samples int) (ForecasterResult, error) {
	clk := grid.New(seed).Clock
	a := nws.NewAdaptive()
	var mean float64
	level := 100.0
	congested := false
	for i := 0; i < samples; i++ {
		// Diurnal drift.
		base := 100 + 30*math.Sin(2*math.Pi*float64(i)/500)
		// Congestion episodes arrive and clear at random.
		if congested {
			if clk.Rand() < 0.05 {
				congested = false
			}
		} else if clk.Rand() < 0.01 {
			congested = true
		}
		level = base
		if congested {
			level = base * 0.35
		}
		v := level * (1 + 0.08*(2*clk.Rand()-1))
		a.Observe(v)
		mean += v
	}
	mean /= float64(samples)
	errs := a.Errors()
	res := ForecasterResult{}
	for _, name := range []string{"last", "mean", "median", "ewma", "ar1"} {
		res.Methods = append(res.Methods, name)
		res.NMAE = append(res.NMAE, errs[name]/mean)
	}
	best, _ := a.Best()
	res.Methods = append(res.Methods, "adaptive (NWS)")
	res.NMAE = append(res.NMAE, a.MAE()/mean)
	res.Best = best
	return res, nil
}

// Rows formats the accuracy table.
func (r ForecasterResult) Rows() []Row {
	rows := make([]Row, len(r.Methods))
	for i := range r.Methods {
		rows[i] = Row{Label: r.Methods[i], Value: fmt.Sprintf("normalized MAE %.3f", r.NMAE[i])}
	}
	rows = append(rows, Row{Label: "selected by adaptive", Value: r.Best})
	return rows
}

// --- F8b: channel caching ablation ---

// ChannelCacheResult compares repeated transfers with and without data
// channel caching.
type ChannelCacheResult struct {
	Transfers   int
	ColdElapsed time.Duration
	WarmElapsed time.Duration
	ColdBps     float64
	WarmBps     float64
}

// RunChannelCache measures n back-to-back 64 MB transfers on a 622 Mb/s,
// 60 ms-RTT path, with GSI re-authentication per session in the cold
// case — the exact dip mechanism Figure 8's caption describes.
func RunChannelCache(seed int64, transfers int) (ChannelCacheResult, error) {
	res := ChannelCacheResult{Transfers: transfers}
	const file = int64(64) << 20
	run := func(cache bool) (time.Duration, error) {
		g := twoHosts(seed, simnet.LinkConfig{CapacityBps: 622e6, Delay: 30 * time.Millisecond})
		store := grid.VirtualStore(file, "f")
		cli := gridftp.ClientConfig{Parallelism: 4, BufferBytes: 1 << 20, CacheDataChannels: cache}
		var elapsed time.Duration
		err := g.Run(func() {
			if !g.Serve("src", gridftp.Config{Store: store}) {
				return
			}
			t0 := g.Clock.Now()
			if cache {
				c, err := g.Dial("dst", "src:2811", cli)
				if g.Fail(err) {
					return
				}
				defer c.Close()
				for i := 0; i < transfers; i++ {
					if _, err := c.Get("f", gridftp.NewVirtualSink(file)); g.Fail(err) {
						return
					}
				}
			} else {
				for i := 0; i < transfers; i++ {
					if _, err := g.Fetch("dst", "src:2811", "f", file, cli); g.Fail(err) {
						return
					}
				}
			}
			elapsed = g.Clock.Now().Sub(t0)
		})
		return elapsed, err
	}
	var err error
	if res.ColdElapsed, err = run(false); err != nil {
		return res, err
	}
	if res.WarmElapsed, err = run(true); err != nil {
		return res, err
	}
	total := float64(transfers) * float64(file) * 8
	res.ColdBps = total / res.ColdElapsed.Seconds()
	res.WarmBps = total / res.WarmElapsed.Seconds()
	return res, nil
}

// Rows formats the ablation.
func (r ChannelCacheResult) Rows() []Row {
	return []Row{
		{"transfers", fmt.Sprint(r.Transfers)},
		{"without channel caching (SC'00)", fmt.Sprintf("%s  (%v)", mbps(r.ColdBps), r.ColdElapsed.Round(time.Millisecond))},
		{"with channel caching (post-SC'00)", fmt.Sprintf("%s  (%v)", mbps(r.WarmBps), r.WarmElapsed.Round(time.Millisecond))},
		{"speedup", fmt.Sprintf("%.2fx", r.WarmBps/r.ColdBps)},
	}
}
