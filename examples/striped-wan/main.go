// Striped WAN transfer: drive GridFTP directly (no request manager) over
// a simulated wide-area path and demonstrate the three §6.1/§7
// mechanisms behind Table 1: TCP buffer tuning, parallel streams on a
// lossy path, and striping across server hosts.
//
//	go run ./examples/striped-wan
package main

import (
	"fmt"
	"log"
	"time"

	"esgrid/internal/grid"
	"esgrid/internal/gridftp"
	"esgrid/internal/simnet"
)

const fileSize = int64(512) << 20

func main() {
	fmt.Println("== 1. TCP buffer tuning (SBUF, §7) ==")
	fmt.Println("622 Mb/s path, 40 ms RTT; bandwidth-delay product = 3.1 MB")
	for _, buf := range []int{64 << 10, 256 << 10, 1 << 20, 4 << 20} {
		rate := transferOnce(1, buf, 0, 1)
		fmt.Printf("  buffer %5d KB -> %7.1f Mb/s\n", buf>>10, rate/1e6)
	}

	fmt.Println("\n== 2. parallel TCP streams on a lossy path (§6.1) ==")
	fmt.Println("same path with 3e-4 packet loss (congested commodity WAN)")
	for _, p := range []int{1, 2, 4, 8} {
		rate := transferOnce(p, 1<<20, 3e-4, 1)
		fmt.Printf("  %2d stream(s) -> %7.1f Mb/s\n", p, rate/1e6)
	}

	fmt.Println("\n== 3. striping across server hosts (SPAS, §6.1) ==")
	fmt.Println("each stripe node has a 200 Mb/s access link")
	for _, k := range []int{1, 2, 4, 8} {
		rate := stripedOnce(k)
		fmt.Printf("  %d stripe node(s) -> %7.1f Mb/s\n", k, rate/1e6)
	}
}

// transferOnce measures one GET on a fresh src--dst topology.
func transferOnce(parallelism, buffer int, loss float64, seed int64) float64 {
	g := grid.New(seed)
	g.Net.AddHost("src", simnet.HostConfig{})
	g.Net.AddHost("dst", simnet.HostConfig{})
	g.Net.AddLink("src", "dst", simnet.LinkConfig{CapacityBps: 622e6, Delay: 20 * time.Millisecond, LossRate: loss})
	return getOnce(g, "src", gridftp.Config{}, gridftp.ClientConfig{Parallelism: parallelism, BufferBytes: buffer})
}

// stripedOnce measures a striped GET across k data nodes.
func stripedOnce(k int) float64 {
	g := grid.New(int64(k))
	n := g.Net
	n.AddNode("wan")
	n.AddHost("dst", simnet.HostConfig{DefaultBufferBytes: 4 << 20})
	n.AddLink("dst", "wan", simnet.LinkConfig{CapacityBps: 2e9, Delay: 5 * time.Millisecond})
	n.AddHost("ctl", simnet.HostConfig{})
	n.AddLink("ctl", "wan", simnet.LinkConfig{CapacityBps: 622e6, Delay: 5 * time.Millisecond})
	var nodes []gridftp.DataNode
	for i := 0; i < k; i++ {
		name := fmt.Sprintf("node%d", i)
		h := n.AddHost(name, simnet.HostConfig{DefaultBufferBytes: 4 << 20})
		n.AddLink(name, "wan", simnet.LinkConfig{CapacityBps: 200e6, Delay: 5 * time.Millisecond})
		nodes = append(nodes, gridftp.DataNode{Net: h, Host: name})
	}
	return getOnce(g, "ctl", gridftp.Config{DataNodes: nodes},
		gridftp.ClientConfig{Parallelism: 2, Striped: true, BufferBytes: 4 << 20})
}

// getOnce serves a fileSize file from srv with cfg and returns the rate
// of one whole-file GET of it to dst.
func getOnce(g *grid.Grid, srv string, cfg gridftp.Config, cli gridftp.ClientConfig) float64 {
	cfg.Store = grid.VirtualStore(fileSize, "chunk.dat")
	var rate float64
	err := g.Run(func() {
		if !g.Serve(srv, cfg) {
			return
		}
		st, err := g.Fetch("dst", srv+":2811", "chunk.dat", fileSize, cli)
		if !g.Fail(err) {
			rate = st.Bps()
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	return rate
}
