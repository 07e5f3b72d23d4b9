package experiments

import (
	"fmt"
	"time"

	"esgrid/internal/grid"
	"esgrid/internal/gridftp"
	"esgrid/internal/netlogger"
	"esgrid/internal/simnet"
	"esgrid/internal/vtime"
)

// --- S11: simulator scalability — N concurrent clients (DESIGN.md) ---
//
// The paper's testbed tops out at eight striped pairs, but an ESG
// deployment serves an entire community: hundreds to thousands of
// concurrent downloads across many sites. This sweep measures how the
// simulator itself scales with the incremental component-scoped
// allocator: N clients spread over N/8 independent sites, all
// downloading concurrently, reporting simulated seconds per wall-clock
// second at each population.

// ScaleResult records one client-count sweep. Lat holds the per-client
// download-latency tail (p50/p99/p999/max) at each population — the
// distribution a mean would flatten: under fair sharing the last
// arrivals at a saturated site see multiples of the median.
type ScaleResult struct {
	Clients     []int
	SimElapsed  []time.Duration
	WallElapsed []time.Duration
	Bytes       []int64
	AllocPasses []uint64
	AllocFlows  []uint64
	Lat         []netlogger.Tail
	FileBytes   int64
}

const scaleSiteClients = 8

// RunScale runs the sweep. Each site is a GridFTP server on a 1 Gb/s
// access link with up to 8 clients on 100 Mb/s links behind a shared
// site router; sites are disjoint, so the allocator sees one component
// per site regardless of total population. Loss is zero and client
// start times are staggered deterministically, so a given seed always
// produces the same event trace.
func RunScale(seed int64, clients []int, fileMB int64) (ScaleResult, error) {
	res := ScaleResult{Clients: clients, FileBytes: fileMB << 20}
	for _, nClients := range clients {
		sim, wall, bytes, passes, visited, tail, err := runScaleOnce(seed, nClients, res.FileBytes)
		if err != nil {
			return res, err
		}
		res.SimElapsed = append(res.SimElapsed, sim)
		res.WallElapsed = append(res.WallElapsed, wall)
		res.Bytes = append(res.Bytes, bytes)
		res.AllocPasses = append(res.AllocPasses, passes)
		res.AllocFlows = append(res.AllocFlows, visited)
		res.Lat = append(res.Lat, tail)
	}
	return res, nil
}

func runScaleOnce(seed int64, nClients int, fileBytes int64) (sim, wall time.Duration, bytes int64, passes, visited uint64, tail netlogger.Tail, err error) {
	g := newRig(seed)
	clk, n := g.Clock, g.Net
	nSites := (nClients + scaleSiteClients - 1) / scaleSiteClients
	for s := 0; s < nSites; s++ {
		srv := fmt.Sprintf("srv%04d", s)
		rtr := fmt.Sprintf("rtr%04d", s)
		n.AddHost(srv, simnet.HostConfig{DefaultBufferBytes: 1 << 20})
		n.AddNode(rtr)
		n.AddLink(srv, rtr, simnet.LinkConfig{CapacityBps: 1e9, Delay: time.Millisecond})
	}
	for c := 0; c < nClients; c++ {
		cli := fmt.Sprintf("cli%04d", c)
		rtr := fmt.Sprintf("rtr%04d", c/scaleSiteClients)
		n.AddHost(cli, simnet.HostConfig{DefaultBufferBytes: 1 << 20})
		n.AddLink(cli, rtr, simnet.LinkConfig{CapacityBps: 100e6, Delay: 4 * time.Millisecond})
	}
	store := grid.VirtualStore(fileBytes, "f")
	lat := netlogger.NewLogHistogram()

	wallStart := time.Now() //esglint:wallclock S11 reports the real wall cost of simulating the scaled run
	err = g.Run(func() {
		for s := 0; s < nSites; s++ {
			if !g.Serve(fmt.Sprintf("srv%04d", s), gridftp.Config{Store: store}) {
				return
			}
		}
		wg := vtime.NewWaitGroup(clk)
		for c := 0; c < nClients; c++ {
			c := c
			wg.Add(1)
			clk.Go(func() {
				defer wg.Done()
				// Unique per-client stagger keeps arrivals ordered and the
				// trace deterministic without serializing the downloads.
				clk.Sleep(time.Duration(c) * 500 * time.Microsecond)
				t0 := clk.Now()
				st, err := g.Fetch(fmt.Sprintf("cli%04d", c), fmt.Sprintf("srv%04d:2811", c/scaleSiteClients), "f", fileBytes,
					gridftp.ClientConfig{Parallelism: 2, BufferBytes: 1 << 20})
				if g.Fail(err) {
					return
				}
				// Dial-to-last-byte latency for this client, in virtual
				// time: the per-client experience the tail row reports.
				lat.ObserveDuration(clk.Now().Sub(t0))
				bytes += st.Bytes
			})
		}
		wg.Wait()
		sim = clk.Now().Sub(vtime.Epoch)
	})
	wall = time.Since(wallStart) //esglint:wallclock S11 reports the real wall cost of simulating the scaled run
	passes, visited = n.AllocStats()
	return sim, wall, bytes, passes, visited, lat.Tail(), err
}

// Rows formats the sweep.
func (r ScaleResult) Rows() []Row {
	rows := make([]Row, 0, len(r.Clients))
	for i, c := range r.Clients {
		simS := r.SimElapsed[i].Seconds()
		wallS := r.WallElapsed[i].Seconds()
		ratio := 0.0
		if wallS > 0 {
			ratio = simS / wallS
		}
		flowsPerPass := 0.0
		if r.AllocPasses[i] > 0 {
			flowsPerPass = float64(r.AllocFlows[i]) / float64(r.AllocPasses[i])
		}
		// Per-client latency as a tail, not a mean: at a saturated site
		// the p999 client's wait is what an operator would be paged for.
		t := r.Lat[i]
		rows = append(rows, Row{
			Label: fmt.Sprintf("%4d clients", c),
			Value: fmt.Sprintf("sim %-8s wall %-10s %8.0f sim-s/wall-s  lat p50 %-7s p99 %-7s p999 %-7s %.1f flows/pass",
				fmt.Sprintf("%.1fs", simS), r.WallElapsed[i].Round(time.Millisecond),
				ratio, fmtSeconds(t.P50), fmtSeconds(t.P99), fmtSeconds(t.P999), flowsPerPass),
		})
	}
	return rows
}

// fmtSeconds renders a latency in seconds with enough precision for
// sub-second tails.
func fmtSeconds(s float64) string { return fmt.Sprintf("%.2fs", s) }
