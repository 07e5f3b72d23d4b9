package experiments

import (
	"fmt"
	"time"

	"esgrid/internal/grid"
	"esgrid/internal/gridftp"
	"esgrid/internal/hrm"
	"esgrid/internal/ldapd"
	"esgrid/internal/mds"
	"esgrid/internal/nws"
	"esgrid/internal/replica"
	"esgrid/internal/rm"
	"esgrid/internal/simnet"
)

// --- S4: replica selection policy comparison (§4/§5) ---

// ReplicaSelResult compares request completion time under each policy on
// a heterogeneous testbed.
type ReplicaSelResult struct {
	Policies []string
	Elapsed  []time.Duration
	Chosen   [][]string // replica hosts chosen per file
}

// RunReplicaSelection fetches the same multi-file request through the RM
// under NWS-based, random and static selection, on a testbed whose
// replica sites differ 10x in connectivity.
func RunReplicaSelection(seed int64, files int, fileMB int64) (ReplicaSelResult, error) {
	policies := []rm.Policy{rm.PolicyNWS, rm.PolicyRandom, rm.PolicyFirst}
	res := ReplicaSelResult{}
	for _, pol := range policies {
		elapsed, chosen, err := runPolicyOnce(seed, pol, files, fileMB)
		if err != nil {
			return res, err
		}
		res.Policies = append(res.Policies, pol.String())
		res.Elapsed = append(res.Elapsed, elapsed)
		res.Chosen = append(res.Chosen, chosen)
	}
	return res, nil
}

func runPolicyOnce(seed int64, pol rm.Policy, nFiles int, fileMB int64) (time.Duration, []string, error) {
	g := newRig(seed)
	clk, n := g.Clock, g.Net
	n.AddNode("wan")
	client := n.AddHost("desk", simnet.HostConfig{DefaultBufferBytes: 1 << 20})
	n.AddLink("desk", "wan", simnet.LinkConfig{CapacityBps: 1e9, Delay: 2 * time.Millisecond})
	// The directory sorts locations by DN, so names are chosen to put the
	// worst site first in catalog order: PolicyFirst pays for ignoring
	// measurements.
	sites := []struct {
		name string
		bps  float64
		owd  time.Duration
	}{
		{"alpha-tape", 45e6, 40 * time.Millisecond},
		{"bravo-mid", 155e6, 20 * time.Millisecond},
		{"zeta-fast", 622e6, 5 * time.Millisecond},
	}
	dir := ldapd.NewDir()
	cat, err := replica.New(dir)
	if err != nil {
		return 0, nil, err
	}
	info, err := mds.New(dir)
	if err != nil {
		return 0, nil, err
	}
	names := fileNames("f%02d.nc", nFiles)
	if err := cat.CreateCollection("sweep", names); err != nil {
		return 0, nil, err
	}
	store := grid.VirtualStore(fileMB<<20, names...) // every site holds every file
	for _, s := range sites {
		n.AddHost(s.name, simnet.HostConfig{DefaultBufferBytes: 1 << 20})
		n.AddLink(s.name, "wan", simnet.LinkConfig{CapacityBps: s.bps, Delay: s.owd})
		if err := cat.AddLocation("sweep", replica.Location{
			Host: s.name, Protocol: "gsiftp", Port: 2811, Path: "/d", Files: names,
		}); err != nil {
			return 0, nil, err
		}
	}
	var elapsed time.Duration
	var chosen []string
	err = g.Run(func() {
		for _, s := range sites {
			if !g.Serve(s.name, gridftp.Config{Store: store}) {
				return
			}
		}
		sensor := nws.NewSensor(clk, g.OracleProber(0), info, 15*time.Second)
		for _, s := range sites {
			sensor.Watch(s.name, "desk")
		}
		sensor.MeasureNow()
		rnd := func() float64 { return clk.Rand() }
		mgr, err := rm.New(rm.Config{
			Clock: clk, Net: client, LocalHost: "desk", Replica: cat, Info: info,
			DestStore: gridftp.NewVirtualStore(), Policy: pol, Rand: rnd,
			Parallelism: 2, BufferBytes: 1 << 20, MonitorInterval: time.Second,
		})
		if g.Fail(err) {
			return
		}
		t0 := clk.Now()
		req := g.submitAll(mgr, "sweep-user", "sweep", names, fileMB<<20)
		if req == nil {
			return
		}
		elapsed = clk.Now().Sub(t0)
		for _, st := range req.Status() {
			chosen = append(chosen, st.Replica)
		}
	})
	return elapsed, chosen, err
}

// Rows formats the comparison.
func (r ReplicaSelResult) Rows() []Row {
	rows := make([]Row, len(r.Policies))
	for i := range r.Policies {
		counts := map[string]int{}
		for _, h := range r.Chosen[i] {
			counts[h]++
		}
		rows[i] = Row{
			Label: fmt.Sprintf("policy %-8s", r.Policies[i]),
			Value: fmt.Sprintf("request completed in %-8v choices %v", r.Elapsed[i].Round(time.Second), counts),
		}
	}
	return rows
}

// --- S5: concurrent multi-site transfers (§4) ---

// MultiSiteResult compares fetching N files all from one site vs spread
// across N sites.
type MultiSiteResult struct {
	Files         int
	SingleElapsed time.Duration
	SpreadElapsed time.Duration
	SingleBps     float64
	SpreadBps     float64
}

// RunMultiSite measures the aggregate-rate benefit of replicating popular
// collections at several sites and transferring concurrently (§4: "the
// ability to transfer multiple files from various sites concurrently can
// enhance the aggregate transfer rate").
func RunMultiSite(seed int64, files int, fileMB int64) (MultiSiteResult, error) {
	res := MultiSiteResult{Files: files}
	single, err := runMultiSiteOnce(seed, files, fileMB, false)
	if err != nil {
		return res, err
	}
	spread, err := runMultiSiteOnce(seed, files, fileMB, true)
	if err != nil {
		return res, err
	}
	res.SingleElapsed, res.SpreadElapsed = single, spread
	total := float64(files) * float64(fileMB<<20) * 8
	res.SingleBps = total / single.Seconds()
	res.SpreadBps = total / spread.Seconds()
	return res, nil
}

func runMultiSiteOnce(seed int64, nFiles int, fileMB int64, spread bool) (time.Duration, error) {
	g := newRig(seed)
	clk, n := g.Clock, g.Net
	n.AddNode("wan")
	client := n.AddHost("desk", simnet.HostConfig{DefaultBufferBytes: 1 << 20})
	n.AddLink("desk", "wan", simnet.LinkConfig{CapacityBps: 2e9, Delay: 2 * time.Millisecond})
	cat, err := replica.New(ldapd.NewDir())
	if err != nil {
		return 0, err
	}
	names := fileNames("f%02d.nc", nFiles)
	if err := cat.CreateCollection("pop", names); err != nil {
		return 0, err
	}
	nSites := nFiles
	if !spread {
		nSites = 1
	}
	sites := fileNames("site%02d", nSites)
	for i, site := range sites {
		n.AddHost(site, simnet.HostConfig{DefaultBufferBytes: 1 << 20})
		n.AddLink(site, "wan", simnet.LinkConfig{CapacityBps: 155e6, Delay: 10 * time.Millisecond})
		// Each site holds either everything (single) or its share (spread).
		holds := names
		if spread {
			holds = []string{names[i]}
		}
		if err := cat.AddLocation("pop", replica.Location{
			Host: site, Protocol: "gsiftp", Port: 2811, Path: "/d", Files: holds,
		}); err != nil {
			return 0, err
		}
	}
	// Every server stores every file; the catalog decides which it is
	// asked for.
	store := grid.VirtualStore(fileMB<<20, names...)
	var elapsed time.Duration
	err = g.Run(func() {
		for _, site := range sites {
			if !g.Serve(site, gridftp.Config{Store: store}) {
				return
			}
		}
		mgr, err := rm.New(rm.Config{
			Clock: clk, Net: client, LocalHost: "desk", Replica: cat,
			DestStore: gridftp.NewVirtualStore(), Policy: rm.PolicyFirst,
			Parallelism: 2, BufferBytes: 1 << 20, MonitorInterval: time.Second,
		})
		if g.Fail(err) {
			return
		}
		t0 := clk.Now()
		if g.submitAll(mgr, "u", "pop", names, fileMB<<20) != nil {
			elapsed = clk.Now().Sub(t0)
		}
	})
	return elapsed, err
}

// Rows formats the comparison.
func (r MultiSiteResult) Rows() []Row {
	return []Row{
		{fmt.Sprintf("%d files from 1 site", r.Files), fmt.Sprintf("%-8v %s", r.SingleElapsed.Round(time.Second), mbps(r.SingleBps))},
		{fmt.Sprintf("%d files from %d sites", r.Files, r.Files), fmt.Sprintf("%-8v %s", r.SpreadElapsed.Round(time.Second), mbps(r.SpreadBps))},
		{"aggregate speedup", fmt.Sprintf("%.2fx", r.SpreadBps/r.SingleBps)},
	}
}

// --- S6: HRM staging and cache behaviour (§4) ---

// HRMStagingResult reports cache hit behaviour across cache sizes.
type HRMStagingResult struct {
	CacheGB  []int64
	HitRate  []float64
	MeanWait []time.Duration
}

// RunHRMStaging replays a Zipf-ish re-access pattern over a 40-file tape
// archive at several disk-cache sizes.
func RunHRMStaging(seed int64, accesses int) (HRMStagingResult, error) {
	res := HRMStagingResult{}
	for _, cacheGB := range []int64{8, 32, 128} {
		clk := grid.New(seed).Clock
		cfg := hrm.DefaultConfig
		cfg.CacheBytes = cacheGB << 30
		h := hrm.New(clk, cfg)
		const nFiles = 40
		for i := 0; i < nFiles; i++ {
			h.AddTapeFile(hrm.TapeFile{
				Name: fmt.Sprintf("f%02d.nc", i),
				Size: 2 << 30,
				Tape: fmt.Sprintf("T%d", i/8),
			})
		}
		var totalWait time.Duration
		clk.Run(func() {
			for a := 0; a < accesses; a++ {
				// Zipf-ish popularity: low indices dominate.
				u := clk.Rand()
				idx := int(u * u * nFiles)
				if idx >= nFiles {
					idx = nFiles - 1
				}
				name := fmt.Sprintf("f%02d.nc", idx)
				wait, err := h.Stage(name)
				if err != nil {
					continue
				}
				totalWait += wait
				h.Release(name)
			}
		})
		st := h.Stats()
		res.CacheGB = append(res.CacheGB, cacheGB)
		res.HitRate = append(res.HitRate, float64(st.Hits)/float64(st.Hits+st.Misses))
		res.MeanWait = append(res.MeanWait, totalWait/time.Duration(accesses))
	}
	return res, nil
}

// Rows formats the sweep.
func (r HRMStagingResult) Rows() []Row {
	rows := make([]Row, len(r.CacheGB))
	for i := range r.CacheGB {
		rows[i] = Row{
			Label: fmt.Sprintf("disk cache %4d GB", r.CacheGB[i]),
			Value: fmt.Sprintf("hit rate %5.1f%%  mean stage wait %v", 100*r.HitRate[i], r.MeanWait[i].Round(time.Second)),
		}
	}
	return rows
}
