package rm

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"esgrid/internal/esgrpc"
	"esgrid/internal/gridftp"
	"esgrid/internal/hrm"
	"esgrid/internal/ldapd"
	"esgrid/internal/mds"
	"esgrid/internal/netlogger"
	"esgrid/internal/nws"
	"esgrid/internal/replica"
	"esgrid/internal/simnet"
	"esgrid/internal/vtime"
)

const (
	mbps = 1e6
	mb   = int64(1) << 20
)

// grid is a miniature ESG testbed: a client site and two replica sites
// with different connectivity, plus catalogs and NWS.
type grid struct {
	clk    *vtime.Sim
	net    *simnet.Net
	client *simnet.Host
	cat    *replica.Catalog
	info   *mds.Service
	sensor *nws.Sensor
	stores map[string]*gridftp.VirtualStore
}

// buildGrid creates sites "fast" (622 Mb/s) and "slow" (45 Mb/s) serving
// the same collection to client site "desk".
func buildGrid(t *testing.T, seed int64) *grid {
	t.Helper()
	clk := vtime.NewSim(seed)
	n := simnet.New(clk)
	g := &grid{clk: clk, net: n, stores: map[string]*gridftp.VirtualStore{}}
	g.client = n.AddHost("desk", simnet.HostConfig{DefaultBufferBytes: 1 << 20})
	n.AddNode("wan")
	n.AddLink("desk", "wan", simnet.LinkConfig{CapacityBps: 1e9, Delay: 2 * time.Millisecond})
	n.AddHost("fast", simnet.HostConfig{DefaultBufferBytes: 1 << 20})
	n.AddLink("fast", "wan", simnet.LinkConfig{CapacityBps: 622 * mbps, Delay: 10 * time.Millisecond})
	n.AddHost("slow", simnet.HostConfig{DefaultBufferBytes: 1 << 20})
	n.AddLink("slow", "wan", simnet.LinkConfig{CapacityBps: 45 * mbps, Delay: 30 * time.Millisecond})

	dir := ldapd.NewDir()
	cat, err := replica.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	g.cat = cat
	info, err := mds.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	g.info = info

	files := []string{"pcm.tas.1998-01.nc", "pcm.tas.1998-02.nc", "pcm.tas.1998-03.nc"}
	if err := cat.CreateCollection("pcm-monthly", files); err != nil {
		t.Fatal(err)
	}
	for _, site := range []string{"fast", "slow"} {
		store := gridftp.NewVirtualStore()
		for _, f := range files {
			store.Put(f, 64*mb)
		}
		g.stores[site] = store
		if err := cat.AddLocation("pcm-monthly", replica.Location{
			Host: site, Protocol: "gsiftp", Port: 2811, Path: "/data", Files: files,
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range files {
		cat.RegisterLogicalFile("pcm-monthly", f, 64*mb)
	}
	return g
}

// startServers launches GridFTP servers at both sites; must run inside
// clk.Run.
func (g *grid) startServers(t *testing.T) {
	t.Helper()
	for _, site := range []string{"fast", "slow"} {
		host := g.net.Host(site)
		srv, err := gridftp.NewServer(gridftp.Config{
			Clock: g.clk, Net: host, Host: site, Store: g.stores[site],
		})
		if err != nil {
			t.Fatal(err)
		}
		l, err := host.Listen(":2811")
		if err != nil {
			t.Fatal(err)
		}
		g.clk.Go(func() { srv.Serve(l) })
	}
}

// startNWS measures both sites and publishes forecasts; must run inside
// clk.Run.
func (g *grid) startNWS() {
	prober := nws.ProbeFunc(func(from, to string) (float64, time.Duration, error) {
		bw, err := g.net.EstimateBandwidth(from, to)
		if err != nil {
			return 0, 0, err
		}
		rtt, err := g.net.PathRTT(from, to)
		if err != nil {
			return 0, 0, err
		}
		return bw, rtt, nil
	})
	g.sensor = nws.NewSensor(g.clk, prober, g.info, 10*time.Second)
	g.sensor.Watch("fast", "desk")
	g.sensor.Watch("slow", "desk")
	g.sensor.MeasureNow()
}

func (g *grid) manager(t *testing.T, mut func(*Config)) *Manager {
	t.Helper()
	cfg := Config{
		Clock:           g.clk,
		Net:             g.client,
		LocalHost:       "desk",
		Replica:         g.cat,
		Info:            g.info,
		DestStore:       gridftp.NewVirtualStore(),
		Policy:          PolicyNWS,
		Parallelism:     2,
		BufferBytes:     1 << 20,
		MonitorInterval: time.Second,
		MaxAttempts:     5,
		RetryBackoff:    500 * time.Millisecond,
	}
	if mut != nil {
		mut(&cfg)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRequestCompletesAllFiles(t *testing.T) {
	g := buildGrid(t, 1)
	g.clk.Run(func() {
		g.startServers(t)
		g.startNWS()
		m := g.manager(t, nil)
		req, err := m.Submit("/CN=drach", "pcm-monthly", []FileRequest{
			{Name: "pcm.tas.1998-01.nc"}, {Name: "pcm.tas.1998-02.nc"}, {Name: "pcm.tas.1998-03.nc"},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := req.Wait(); err != nil {
			t.Fatal(err)
		}
		for _, st := range req.Status() {
			if st.State != StateDone {
				t.Errorf("%s state = %s", st.Name, st.State)
			}
			if st.Received != 64*mb {
				t.Errorf("%s received = %d", st.Name, st.Received)
			}
		}
		if req.TotalReceived() != 3*64*mb {
			t.Fatalf("total = %d", req.TotalReceived())
		}
	})
}

func TestNWSPolicyPicksFastReplica(t *testing.T) {
	g := buildGrid(t, 2)
	g.clk.Run(func() {
		g.startServers(t)
		g.startNWS()
		m := g.manager(t, nil)
		req, _ := m.Submit("u", "pcm-monthly", []FileRequest{{Name: "pcm.tas.1998-01.nc"}})
		if err := req.Wait(); err != nil {
			t.Fatal(err)
		}
		if st := req.Status()[0]; st.Replica != "fast" {
			t.Fatalf("NWS policy chose %q, want fast", st.Replica)
		}
	})
}

func TestStaticPolicyIgnoresForecasts(t *testing.T) {
	g := buildGrid(t, 3)
	g.clk.Run(func() {
		g.startServers(t)
		g.startNWS()
		m := g.manager(t, func(c *Config) { c.Policy = PolicyFirst })
		req, _ := m.Submit("u", "pcm-monthly", []FileRequest{{Name: "pcm.tas.1998-01.nc"}})
		if err := req.Wait(); err != nil {
			t.Fatal(err)
		}
		// Catalog order: "fast" was added first, so static picks fast
		// here; the point is it did not consult forecasts at all. Verify
		// by removing forecasts and ensuring it still works.
		m2 := g.manager(t, func(c *Config) { c.Policy = PolicyFirst; c.Info = nil })
		req2, _ := m2.Submit("u", "pcm-monthly", []FileRequest{{Name: "pcm.tas.1998-02.nc"}})
		if err := req2.Wait(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestFailoverToAlternateReplica(t *testing.T) {
	g := buildGrid(t, 4)
	g.clk.Run(func() {
		g.startServers(t)
		g.startNWS()
		m := g.manager(t, nil)
		// Kill the fast site's link shortly after the transfer starts; the
		// RM must fail over to "slow" and finish with a restart.
		link := g.net.LinkBetween("fast", "wan")
		g.clk.AfterFunc(400*time.Millisecond, func() { link.SetUp(false, true) })
		req, _ := m.Submit("u", "pcm-monthly", []FileRequest{{Name: "pcm.tas.1998-01.nc"}})
		if err := req.Wait(); err != nil {
			t.Fatal(err)
		}
		st := req.Status()[0]
		if st.Replica != "slow" {
			t.Fatalf("final replica = %q, want slow", st.Replica)
		}
		if st.Attempts < 2 {
			t.Fatalf("attempts = %d, want >= 2", st.Attempts)
		}
		joined := strings.Join(req.Messages(), "\n")
		if !strings.Contains(joined, "trying alternate") {
			t.Fatalf("messages missing failover note:\n%s", joined)
		}
	})
}

func TestReliabilityPluginAbortsSlowTransfer(t *testing.T) {
	g := buildGrid(t, 5)
	g.clk.Run(func() {
		g.startServers(t)
		g.startNWS()
		// Degrade the fast site AFTER forecasts were taken, so NWS still
		// sends the RM there; the reliability plug-in must bail out.
		g.net.LinkBetween("fast", "wan").SetCapacityFactor(0.005) // ~3 Mb/s
		m := g.manager(t, func(c *Config) { c.MinRateBps = 10 * mbps })
		req, _ := m.Submit("u", "pcm-monthly", []FileRequest{{Name: "pcm.tas.1998-01.nc"}})
		if err := req.Wait(); err != nil {
			t.Fatal(err)
		}
		st := req.Status()[0]
		if st.Replica != "slow" {
			t.Fatalf("final replica = %q, want slow after low-rate abort", st.Replica)
		}
		joined := strings.Join(req.Messages(), "\n")
		if !strings.Contains(joined, "below threshold") {
			t.Fatalf("messages missing abort note:\n%s", joined)
		}
	})
}

// stagedRig serves files from tape behind an HRM at lbnl (one drive, a
// GridFTP server over its disk cache) to an RM at desk that fetches
// collection "pcm". With disk set, ncar also serves the files from disk,
// after lbnl in the catalog.
type stagedRig struct {
	seed, cacheBytes int64
	files            []hrm.TapeFile
	maxConcurrent    int
	disk             bool
}

// run builds the rig and runs body inside the simulation.
func (r stagedRig) run(t *testing.T, body func(m *Manager, h *hrm.HRM, n *simnet.Net)) {
	t.Helper()
	clk := vtime.NewSim(r.seed)
	n := simnet.New(clk)
	desk := n.AddHost("desk", simnet.HostConfig{DefaultBufferBytes: 1 << 20})
	lbnl := n.AddHost("lbnl", simnet.HostConfig{DefaultBufferBytes: 1 << 20})
	n.AddLink("desk", "lbnl", simnet.LinkConfig{CapacityBps: 622 * mbps, Delay: 10 * time.Millisecond})
	cat, _ := replica.New(ldapd.NewDir())
	var names []string
	for _, f := range r.files {
		names = append(names, f.Name)
	}
	cat.CreateCollection("pcm", names)
	cat.AddLocation("pcm", replica.Location{
		Host: "lbnl", Protocol: "gsiftp", Port: 2811, Path: "/hpss", Files: names, Staged: true,
	})
	var ncar *simnet.Host
	diskStore := gridftp.NewVirtualStore()
	if r.disk {
		ncar = n.AddHost("ncar", simnet.HostConfig{DefaultBufferBytes: 1 << 20})
		n.AddLink("desk", "ncar", simnet.LinkConfig{CapacityBps: 622 * mbps, Delay: 10 * time.Millisecond})
		for _, f := range r.files {
			diskStore.Put(f.Name, f.Size)
		}
		cat.AddLocation("pcm", replica.Location{
			Host: "ncar", Protocol: "gsiftp", Port: 2811, Path: "/data", Files: names,
		})
	}
	for _, f := range r.files {
		cat.RegisterLogicalFile("pcm", f.Name, f.Size)
	}
	clk.Run(func() {
		h := hrm.New(clk, hrm.Config{Drives: 1, MountTime: 30 * time.Second, SeekTime: 10 * time.Second, ReadBps: 112e6, CacheBytes: r.cacheBytes})
		for _, f := range r.files {
			h.AddTapeFile(f)
		}
		rpcSrv := esgrpc.NewServer(clk, nil)
		h.RegisterRPC(rpcSrv)
		rl, _ := lbnl.Listen(fmt.Sprintf(":%d", hrm.Port))
		clk.Go(func() { rpcSrv.Serve(rl) })
		serve := func(host *simnet.Host, store gridftp.FileStore) {
			gsrv, _ := gridftp.NewServer(gridftp.Config{Clock: clk, Net: host, Host: host.Name(), Store: store})
			gl, _ := host.Listen(":2811")
			clk.Go(func() { gsrv.Serve(gl) })
		}
		serve(lbnl, h.Store())
		if ncar != nil {
			serve(ncar, diskStore)
		}

		m, err := New(Config{
			Clock: clk, Net: desk, LocalHost: "desk", Replica: cat, Policy: PolicyFirst,
			DestStore: gridftp.NewVirtualStore(), MaxConcurrent: r.maxConcurrent,
			Parallelism: 2, BufferBytes: 1 << 20, MonitorInterval: time.Second,
			MaxAttempts: 5, RetryBackoff: 500 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		body(m, h, n)
	})
}

func TestStagedReplicaTriggersHRM(t *testing.T) {
	files := []hrm.TapeFile{{Name: "deep.nc", Size: 256 * mb, Tape: "T9"}}
	stagedRig{seed: 6, cacheBytes: 10 << 30, files: files}.run(t, func(m *Manager, h *hrm.HRM, _ *simnet.Net) {
		t0 := m.cfg.Clock.Now()
		req, _ := m.Submit("u", "pcm", []FileRequest{{Name: "deep.nc"}})
		if err := req.Wait(); err != nil {
			t.Fatal(err)
		}
		// Staging (mount+seek+read 256MB at 14MB/s ~ 58s) must dominate.
		if elapsed := m.cfg.Clock.Now().Sub(t0); elapsed < 50*time.Second {
			t.Fatalf("completed in %v; staging latency missing", elapsed)
		}
		if h.Stats().Misses != 1 {
			t.Fatalf("hrm stats = %+v", h.Stats())
		}
		joined := strings.Join(req.Messages(), "\n")
		if !strings.Contains(joined, "staged from mass storage") {
			t.Fatalf("messages missing staging note:\n%s", joined)
		}
	})
}

// TestStagedFilesReleased: a request larger than the HRM's disk cache
// completes only if the RM releases each file it staged once its
// transfer ends; a pinned file can never be evicted.
func TestStagedFilesReleased(t *testing.T) {
	var files []hrm.TapeFile
	var reqs []FileRequest
	for _, name := range []string{"a.nc", "b.nc", "c.nc", "d.nc"} {
		files = append(files, hrm.TapeFile{Name: name, Size: 16 * mb, Tape: "T1"})
		reqs = append(reqs, FileRequest{Name: name})
	}
	stagedRig{seed: 11, cacheBytes: 32 * mb, files: files, maxConcurrent: 1}.run(t, func(m *Manager, h *hrm.HRM, _ *simnet.Net) {
		req, _ := m.Submit("u", "pcm", reqs)
		if err := req.Wait(); err != nil {
			t.Fatal(err)
		}
		if st := h.Stats(); st.Misses != 4 || st.EvictedBytes != 32*mb {
			t.Fatalf("hrm stats = %+v, want 4 misses and 2 files evicted", st)
		}
	})
}

// onePinFiles are two tape files for a cache with room for one: staging
// b.nc succeeds only once a.nc is unpinned.
var onePinFiles = []hrm.TapeFile{
	{Name: "a.nc", Size: 64 * mb, Tape: "T1"},
	{Name: "b.nc", Size: 64 * mb, Tape: "T1"},
}

// requireUnpinned stages b.nc in-process, which must evict a.nc.
func requireUnpinned(t *testing.T, h *hrm.HRM) {
	t.Helper()
	if _, err := h.Stage("b.nc"); err != nil {
		t.Fatalf("a.nc still pinned: %v", err)
	}
}

// TestStagedFailoverDoesNotWaitForRelease: when the link to a staging
// site drops mid-transfer, the RM fails over to the disk replica after
// one retry backoff; the release to the unreachable HRM goes on in the
// background and lands when the link returns.
func TestStagedFailoverDoesNotWaitForRelease(t *testing.T) {
	stagedRig{seed: 12, cacheBytes: 64 * mb, files: onePinFiles, disk: true}.run(t, func(m *Manager, h *hrm.HRM, n *simnet.Net) {
		clk := m.cfg.Clock
		link := n.LinkBetween("desk", "lbnl")
		req, _ := m.Submit("u", "pcm", []FileRequest{{Name: "a.nc"}})
		var down time.Time
		var watch func()
		watch = func() {
			if req.Status()[0].State == StateTransferring {
				down = clk.Now()
				link.SetUp(false, true)
				clk.AfterFunc(10*time.Minute, func() { link.SetUp(true, false) })
				return
			}
			clk.AfterFunc(100*time.Millisecond, watch)
		}
		clk.AfterFunc(0, watch)
		if err := req.Wait(); err != nil {
			t.Fatal(err)
		}
		st := req.Status()[0]
		if down.IsZero() || st.Replica != "ncar" {
			t.Fatalf("link dropped at %v; final replica = %q, want ncar", down, st.Replica)
		}
		if took := clk.Now().Sub(down); took > 30*time.Second {
			t.Fatalf("fail-over took %v after the link dropped; the release held the attempt", took)
		}
		clk.Sleep(11 * time.Minute)
		requireUnpinned(t, h)
	})
}

// TestStagedReleaseRetried: a release that meets a crashed HRM host is
// retried until the host is back, so the file does not stay pinned.
func TestStagedReleaseRetried(t *testing.T) {
	stagedRig{seed: 13, cacheBytes: 64 * mb, files: onePinFiles}.run(t, func(m *Manager, h *hrm.HRM, n *simnet.Net) {
		clk := m.cfg.Clock
		req, _ := m.Submit("u", "pcm", []FileRequest{{Name: "a.nc"}})
		if err := req.Wait(); err != nil {
			t.Fatal(err)
		}
		// The attempt has just ended; its release has not reached lbnl.
		lbnl := n.Host("lbnl")
		lbnl.SetDown(true)
		clk.Sleep(time.Second)
		lbnl.SetDown(false)
		clk.Sleep(5 * time.Second)
		requireUnpinned(t, h)
	})
}

func TestMonitorRendering(t *testing.T) {
	g := buildGrid(t, 7)
	g.clk.Run(func() {
		g.startServers(t)
		g.startNWS()
		m := g.manager(t, nil)
		req, _ := m.Submit("/CN=williams", "pcm-monthly", []FileRequest{
			{Name: "pcm.tas.1998-01.nc"}, {Name: "pcm.tas.1998-02.nc"},
		})
		if err := req.Wait(); err != nil {
			t.Fatal(err)
		}
		out := RenderMonitor(req, 80)
		for _, want := range []string{
			"Request 1 (/CN=williams)",
			"pcm.tas.1998-01.nc",
			"100.0%",
			"replica selections:",
			"transfer complete",
			"TOTAL:",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("monitor output missing %q:\n%s", want, out)
			}
		}
	})
}

func TestSubmitValidation(t *testing.T) {
	g := buildGrid(t, 9)
	g.clk.Run(func() {
		m := g.manager(t, nil)
		if _, err := m.Submit("u", "pcm-monthly", nil); err == nil {
			t.Fatal("empty request accepted")
		}
		req, _ := m.Submit("u", "pcm-monthly", []FileRequest{{Name: "no-such.nc"}})
		if err := req.Wait(); err == nil {
			t.Fatal("unknown file request succeeded")
		}
		if st := req.Status()[0]; st.State != StateFailed {
			t.Fatalf("state = %v", st.State)
		}
	})
}

func TestConcurrencyCap(t *testing.T) {
	g := buildGrid(t, 10)
	g.clk.Run(func() {
		g.startServers(t)
		g.startNWS()
		m := g.manager(t, func(c *Config) { c.MaxConcurrent = 1 })
		req, _ := m.Submit("u", "pcm-monthly", []FileRequest{
			{Name: "pcm.tas.1998-01.nc"}, {Name: "pcm.tas.1998-02.nc"}, {Name: "pcm.tas.1998-03.nc"},
		})
		if err := req.Wait(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestMultipleUsersConcurrently exercises §4's claim that the RM serves
// "multiple file transfers on behalf of multiple users concurrently":
// three users' requests interleave and all complete.
func TestMultipleUsersConcurrently(t *testing.T) {
	g := buildGrid(t, 11)
	g.clk.Run(func() {
		g.startServers(t)
		g.startNWS()
		m := g.manager(t, nil)
		users := []string{"/CN=drach", "/CN=williams", "/CN=nefedova"}
		reqs := make([]*Request, len(users))
		for i, u := range users {
			r, err := m.Submit(u, "pcm-monthly", []FileRequest{
				{Name: "pcm.tas.1998-01.nc"}, {Name: "pcm.tas.1998-02.nc"},
			})
			if err != nil {
				t.Fatal(err)
			}
			reqs[i] = r
		}
		for i, r := range reqs {
			if err := r.Wait(); err != nil {
				t.Fatalf("user %s: %v", users[i], err)
			}
			if r.TotalReceived() != 2*64*mb {
				t.Fatalf("user %s received %d", users[i], r.TotalReceived())
			}
		}
		// Distinct request ids, correct attribution.
		if reqs[0].ID == reqs[1].ID || reqs[1].User != "/CN=williams" {
			t.Fatal("request identity broken")
		}
	})
}

func TestRenderMonitor(t *testing.T) {
	g := buildGrid(t, 11)
	g.clk.Run(func() {
		g.startServers(t)
		g.startNWS()
		m := g.manager(t, nil)
		req, err := m.Submit("/CN=drach", "pcm-monthly", []FileRequest{
			{Name: "pcm.tas.1998-01.nc"}, {Name: "pcm.tas.1998-02.nc"},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := req.Wait(); err != nil {
			t.Fatal(err)
		}
		out := RenderMonitor(req, 80)
		if !strings.Contains(out, `collection "pcm-monthly"`) || !strings.Contains(out, "/CN=drach") {
			t.Errorf("header missing:\n%s", out)
		}
		// Completed files show a full progress bar at 100%.
		barW := 80 - 34
		if !strings.Contains(out, "["+strings.Repeat("#", barW)+"] 100.0%") {
			t.Errorf("full progress bar missing:\n%s", out)
		}
		if !strings.Contains(out, "TOTAL: 134.2 of 134.2 MB (100.0%)") {
			t.Errorf("total line missing:\n%s", out)
		}
		// Replica pane names the chosen site and final state.
		if !strings.Contains(out, "replica selections:") ||
			!strings.Contains(out, "<- fast") || !strings.Contains(out, "done") {
			t.Errorf("replica pane:\n%s", out)
		}
		// The message pane shows at most the last 8 log lines.
		for i := 0; i < 20; i++ {
			m.emit(req, "synthetic monitor line %02d", i)
		}
		out = RenderMonitor(req, 80)
		shown := 0
		for i := 0; i < 20; i++ {
			if strings.Contains(out, fmt.Sprintf("synthetic monitor line %02d", i)) {
				shown++
				if i < 12 {
					t.Errorf("line %02d should have been truncated", i)
				}
			}
		}
		if shown != 8 {
			t.Errorf("message tail shows %d lines, want 8", shown)
		}

		// Narrow widths clamp to 40 columns.
		narrow := RenderMonitor(req, 10)
		if !strings.Contains(narrow, strings.Repeat("=", 40)) {
			t.Errorf("width clamp missing:\n%s", narrow)
		}
	})
}

// TestRequestTracing checks the life-line span tree minted at Submit and
// threaded through the transfer layers.
func TestRequestTracing(t *testing.T) {
	g := buildGrid(t, 12)
	g.clk.Run(func() {
		g.startServers(t)
		g.startNWS()
		nlog := netlogger.NewLog(g.clk)
		tracer := netlogger.NewTracer(g.clk, nlog)
		metrics := netlogger.NewRegistry(g.clk)
		m := g.manager(t, func(c *Config) {
			c.Tracer = tracer
			c.Metrics = metrics
			c.Log = nlog
		})
		req, err := m.Submit("/CN=drach", "pcm-monthly", []FileRequest{
			{Name: "pcm.tas.1998-01.nc"}, {Name: "pcm.tas.1998-02.nc"},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := req.Wait(); err != nil {
			t.Fatal(err)
		}
		if req.Span() == nil {
			t.Fatal("request has no trace span")
		}
		spans := tracer.Snapshot()
		byName := map[string]int{}
		var unfinished int
		for _, s := range spans {
			byName[s.Name]++
			if !s.Done {
				unfinished++
			}
		}
		if unfinished != 0 {
			t.Errorf("%d spans left unfinished: %+v", unfinished, spans)
		}
		for name, want := range map[string]int{
			"rm.request":      1,
			"rm.file":         2,
			"rm.select":       2,
			"gridftp.session": 2,
			"gridftp.auth":    2,
			"gridftp.get":     2,
		} {
			if byName[name] != want {
				t.Errorf("span %q count = %d, want %d", name, byName[name], want)
			}
		}
		a := netlogger.AnalyzeTrace(spans, req.Span().TraceID())
		if a.Coverage < 0.99 {
			t.Errorf("coverage %.4f, want >= 0.99\n%s", a.Coverage, a.RenderStageTable())
		}
		// Control RTTs were measured on the way.
		if metrics.LogHist("gridftp.control.rtts").Count() == 0 {
			t.Error("no control RTTs observed")
		}
	})
}
