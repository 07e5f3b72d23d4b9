package experiments

import (
	"strings"
	"testing"
	"time"
)

// shortTable1 is a scaled-down Table 1 used by tests: 4 servers, 3
// minutes. The shape assertions hold at this scale too.
func shortTable1() Table1Config {
	cfg := DefaultTable1Config()
	cfg.Servers = 4
	cfg.Duration = 3 * time.Minute
	return cfg
}

func TestTable1Shape(t *testing.T) {
	r, err := RunTable1(shortTable1())
	if err != nil {
		t.Fatal(err)
	}
	if r.PeakBps100ms < r.PeakBps5s {
		t.Errorf("peak@0.1s (%.2fG) < peak@5s (%.2fG)", r.PeakBps100ms/1e9, r.PeakBps5s/1e9)
	}
	if r.PeakBps5s <= r.SustainedBps {
		t.Errorf("peak@5s (%.2fG) <= sustained (%.2fG)", r.PeakBps5s/1e9, r.SustainedBps/1e9)
	}
	// The paper's defining gap: sustained well under half the peak.
	if r.SustainedBps > 0.75*r.PeakBps5s {
		t.Errorf("sustained (%.0fM) too close to peak@5s (%.0fM); show-floor conditions missing",
			r.SustainedBps/1e6, r.PeakBps5s/1e6)
	}
	if r.TransfersDone == 0 {
		t.Fatal("no transfers completed")
	}
	wantTotal := r.SustainedBps / 8 * r.Config.Duration.Seconds()
	if r.TotalBytes < 0.95*wantTotal || r.TotalBytes > 1.05*wantTotal {
		t.Errorf("total bytes %.1fGB inconsistent with sustained rate (%.1fGB)",
			r.TotalBytes/1e9, wantTotal/1e9)
	}
	rows := r.Rows()
	if len(rows) != 8 {
		t.Fatalf("Rows() = %d rows, want the paper's 8", len(rows))
	}
	tab := Table("Table 1", rows)
	for _, want := range []string{"Striped servers", "Peak transfer rate over 0.1 seconds", "Sustained"} {
		if !strings.Contains(tab, want) {
			t.Errorf("table missing %q:\n%s", want, tab)
		}
	}
}

func TestTable1CPUSaturation(t *testing.T) {
	// Without competing loss the hosts must hit their CPU ceiling; the
	// aggregate then sits near servers x per-host cap.
	cfg := shortTable1()
	cfg.WANLossRate = 0
	cfg.CongestedLossRate = 0
	cfg.ShowFloorFaults = false
	cfg.HandshakeCost = 0
	r, err := RunTable1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	perHost := r.PeakBps5s / float64(cfg.Servers)
	if perHost < 180e6 || perHost > 300e6 {
		t.Errorf("per-host clean rate %.0f Mb/s outside the year-2000 CPU ceiling band", perHost/1e6)
	}
}

func TestFigure8ShapeShort(t *testing.T) {
	cfg := DefaultFigure8Config()
	cfg.Duration = 90 * time.Minute
	cfg.ParallelismSchedule = []int{1, 8}
	r, err := RunFigure8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Plateau near the disk cap.
	if r.PlateauBps < 70e6 || r.PlateauBps > 85e6 {
		t.Errorf("plateau %.1f Mb/s, want ~80 (disk-capped)", r.PlateauBps/1e6)
	}
	// Outages force restarts and stall buckets.
	if r.Restarts == 0 {
		t.Error("no restarts despite fault schedule")
	}
	if r.ZeroBuckets == 0 {
		t.Error("no stalled buckets despite outages")
	}
	if r.Transfers < 10 {
		t.Errorf("only %d transfers completed", r.Transfers)
	}
	// Higher parallelism (second half) must beat single-stream (first
	// half) on this lossy path.
	vals := r.Series.Values()
	half := len(vals) / 2
	if mean(vals[half:]) < 1.2*mean(vals[:half]) {
		t.Errorf("parallelism did not lift the second half: %.1f vs %.1f Mb/s",
			mean(vals[half:])/1e6, mean(vals[:half])/1e6)
	}
	if !strings.Contains(r.Plot(80, 10), "Mb/s") {
		t.Error("plot rendering broken")
	}
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

func TestFigure8NoFaultsIsSmooth(t *testing.T) {
	cfg := DefaultFigure8Config()
	cfg.Duration = 40 * time.Minute
	cfg.ParallelismSchedule = []int{8}
	cfg.Faults = false
	r, err := RunFigure8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Restarts != 0 {
		t.Errorf("restarts = %d without faults", r.Restarts)
	}
	if r.ZeroBuckets > 1 {
		t.Errorf("stalled buckets = %d without faults", r.ZeroBuckets)
	}
	if r.MeanBps < 65e6 {
		t.Errorf("mean %.1f Mb/s too low without faults", r.MeanBps/1e6)
	}
}

func TestParallelSweepShape(t *testing.T) {
	r, err := RunParallelSweep(1, 48, []int{1, 4, 8}, 3e-4)
	if err != nil {
		t.Fatal(err)
	}
	// Under loss, parallelism scales strongly...
	if r.LossyBps[2] < 2.5*r.LossyBps[0] {
		t.Errorf("8 vs 1 streams under loss: %.0f vs %.0f Mb/s", r.LossyBps[2]/1e6, r.LossyBps[0]/1e6)
	}
	// ...and on a clean path it matters much less.
	if r.CleanBps[2] > 2*r.CleanBps[0] {
		t.Errorf("clean path gained too much from parallelism: %.0f vs %.0f Mb/s",
			r.CleanBps[2]/1e6, r.CleanBps[0]/1e6)
	}
	if len(r.Rows()) != 3 {
		t.Error("rows mismatch")
	}
}

// A zero loss rate is measured as given, not replaced by a default: the
// "lossy" path is then as clean as the clean one.
func TestParallelSweepZeroLoss(t *testing.T) {
	r, err := RunParallelSweep(1, 8, []int{2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.LossRate != 0 {
		t.Errorf("LossRate = %g, want 0", r.LossRate)
	}
	if lossy, clean := r.LossyBps[0], r.CleanBps[0]; lossy < 0.99*clean {
		t.Errorf("zero-loss path %.1f Mb/s, clean path %.1f Mb/s", lossy/1e6, clean/1e6)
	}
}

func TestBufferSweepKnee(t *testing.T) {
	r, err := RunBufferSweep(1, 64, []int{64 << 10, 1 << 20, 4 << 20}, []time.Duration{20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// 64KB at 20ms: ~26 Mb/s; 4MB: near line rate.
	if r.Bps[0][0] > 40e6 {
		t.Errorf("64KB buffer too fast: %.0f Mb/s", r.Bps[0][0]/1e6)
	}
	if r.Bps[2][0] < 10*r.Bps[0][0] {
		t.Errorf("buffer tuning gain too small: %.0f vs %.0f Mb/s", r.Bps[2][0]/1e6, r.Bps[0][0]/1e6)
	}
}

func TestStripeSweepScales(t *testing.T) {
	r, err := RunStripeSweep(1, 96, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.Bps[1] < 2.8*r.Bps[0] {
		t.Errorf("4 stripes %.0f Mb/s vs 1 stripe %.0f Mb/s", r.Bps[1]/1e6, r.Bps[0]/1e6)
	}
}

func TestLargeFileBeatsChunking(t *testing.T) {
	r, err := RunLargeFile(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r.SingleBps <= r.ChunkedBps {
		t.Errorf("64-bit single session (%.0fM) not faster than 2GB-chunked (%.0fM)",
			r.SingleBps/1e6, r.ChunkedBps/1e6)
	}
}

func TestCPUModelAblation(t *testing.T) {
	r, err := RunCPUModel(1, 128)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Bps) != 4 {
		t.Fatal("want 4 cases")
	}
	if !(r.Bps[0] < r.Bps[1] && r.Bps[1] < r.Bps[2]) {
		t.Errorf("coalescing should monotonically lift throughput: %v", r.Bps)
	}
	// Jumbo frames are the paper's alternative remedy to coalescing: they
	// must also clearly beat the standard-frame baseline.
	if r.Bps[3] < 1.2*r.Bps[0] {
		t.Errorf("jumbo frames did not help: %v vs %v", r.Bps[3], r.Bps[0])
	}
}

func TestForecastersAdaptiveCompetitive(t *testing.T) {
	r, err := RunForecasters(1, 3000)
	if err != nil {
		t.Fatal(err)
	}
	// adaptive is the last entry; it must be within 10% of the best
	// individual method (dynamic predictor selection, §5).
	adaptive := r.NMAE[len(r.NMAE)-1]
	best := adaptive
	for _, v := range r.NMAE[:len(r.NMAE)-1] {
		if v < best {
			best = v
		}
	}
	if adaptive > 1.1*best {
		t.Errorf("adaptive NMAE %.3f vs best individual %.3f", adaptive, best)
	}
}

func TestChannelCacheAblation(t *testing.T) {
	r, err := RunChannelCache(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r.WarmBps <= r.ColdBps {
		t.Errorf("caching did not help: warm %.0fM vs cold %.0fM", r.WarmBps/1e6, r.ColdBps/1e6)
	}
	if r.WarmBps < 1.15*r.ColdBps {
		t.Errorf("caching gain too small: %.2fx", r.WarmBps/r.ColdBps)
	}
}

func TestTableFormatting(t *testing.T) {
	out := Table("T", []Row{{"a", "1"}, {"longer label", "2"}})
	if !strings.Contains(out, "longer label  2") {
		t.Fatalf("alignment broken:\n%s", out)
	}
}

func TestReplicaSelectionNWSWins(t *testing.T) {
	r, err := RunReplicaSelection(1, 4, 48)
	if err != nil {
		t.Fatal(err)
	}
	// policies: [nws, random, static]; static picked the worst-first
	// catalog order, so NWS must finish much faster than static, and no
	// slower than random.
	if r.Elapsed[0] > r.Elapsed[2]/2 {
		t.Errorf("nws %v not clearly better than static %v", r.Elapsed[0], r.Elapsed[2])
	}
	if r.Elapsed[0] > r.Elapsed[1] {
		t.Errorf("nws %v slower than random %v", r.Elapsed[0], r.Elapsed[1])
	}
	// NWS must send every file to the fast mirror.
	for _, h := range r.Chosen[0] {
		if h != "zeta-fast" {
			t.Errorf("nws chose %q", h)
		}
	}
}

func TestMultiSiteAggregation(t *testing.T) {
	r, err := RunMultiSite(1, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	if r.SpreadBps < 2.5*r.SingleBps {
		t.Errorf("spreading across sites gained only %.2fx", r.SpreadBps/r.SingleBps)
	}
}

func TestHRMStagingCacheSweep(t *testing.T) {
	r, err := RunHRMStaging(1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !(r.HitRate[0] < r.HitRate[2]) {
		t.Errorf("hit rate not increasing with cache size: %v", r.HitRate)
	}
	if !(r.MeanWait[2] < r.MeanWait[0]) {
		t.Errorf("mean wait not decreasing with cache size: %v", r.MeanWait)
	}
}

func TestSubsetSavesBytesAndTime(t *testing.T) {
	r, err := RunSubset(1)
	if err != nil {
		t.Fatal(err)
	}
	if r.BytesSaved < 0.7 {
		t.Errorf("subset saved only %.0f%% of bytes", 100*r.BytesSaved)
	}
	// Both transfers pay the same session overheads, so the wall-clock
	// gain is smaller than the byte saving; it must still be material.
	if r.SpeedupTotal < 1.4 {
		t.Errorf("subset speedup only %.1fx", r.SpeedupTotal)
	}
}

// TestScaleSweepRuns drives the scale experiment through the full sweep,
// including the N=1024 population the incremental allocator exists for.
// Small files keep the virtual workload short; the point is that the
// run completes and the accounting is consistent.
func TestScaleSweepRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-client sweep in -short mode")
	}
	r, err := RunScale(3, []int{16, 64, 256, 1024}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range r.Clients {
		if r.SimElapsed[i] <= 0 {
			t.Errorf("%d clients: no virtual time elapsed", c)
		}
		want := int64(c) * r.FileBytes
		if r.Bytes[i] != want {
			t.Errorf("%d clients: %d bytes delivered, want %d", c, r.Bytes[i], want)
		}
		if r.AllocPasses[i] == 0 {
			t.Errorf("%d clients: no allocation passes recorded", c)
		}
		// Component scoping: the mean re-allocated component must stay
		// around one site's flow population, far below the total.
		perPass := float64(r.AllocFlows[i]) / float64(r.AllocPasses[i])
		if c >= 256 && perPass > float64(c) {
			t.Errorf("%d clients: %.1f flows/pass — allocator is not component-scoped", c, perPass)
		}
		// Per-client latency tails: every client observed, quantiles
		// ordered, and the p999 client bounded by the slowest one.
		tl := r.Lat[i]
		if tl.N != int64(c) {
			t.Errorf("%d clients: latency histogram saw %d observations", c, tl.N)
		}
		if tl.P50 <= 0 || tl.P50 > tl.P99 || tl.P99 > tl.P999*1.0001 || tl.P999 > tl.Max*1.0001 {
			t.Errorf("%d clients: tail quantiles out of order: %+v", c, tl)
		}
	}
	if len(r.Rows()) != len(r.Clients) {
		t.Error("rows mismatch")
	}
}

// TestResultFormatting exercises every experiment's Rows() renderer on
// small runs, so the esgbench output paths stay covered.
func TestResultFormatting(t *testing.T) {
	ps, err := RunParallelSweep(1, 16, []int{1, 2}, 3e-4)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := RunBufferSweep(1, 16, []int{64 << 10}, []time.Duration{10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ss, err := RunStripeSweep(1, 32, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	lf, err := RunLargeFile(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := RunCPUModel(1, 32)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := RunForecasters(1, 500)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := RunChannelCache(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := RunReplicaSelection(1, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := RunMultiSite(1, 2, 32)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := RunHRMStaging(1, 30)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := RunSubset(1)
	if err != nil {
		t.Fatal(err)
	}
	f8cfg := DefaultFigure8Config()
	f8cfg.Duration = 20 * time.Minute
	f8cfg.Faults = false
	f8, err := RunFigure8(f8cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, rows := range map[string][]Row{
		"parallel": ps.Rows(), "buffers": bs.Rows(), "stripes": ss.Rows(),
		"largefile": lf.Rows(), "cpu": cm.Rows(), "nws": fc.Rows(),
		"chancache": cc.Rows(), "replicasel": rs.Rows(), "multisite": ms.Rows(),
		"hrm": hs.Rows(), "subset": sub.Rows(), "figure8": f8.Rows(),
	} {
		if len(rows) == 0 {
			t.Errorf("%s: empty rows", name)
			continue
		}
		out := Table(name, rows)
		for _, r := range rows {
			if r.Label == "" || r.Value == "" {
				t.Errorf("%s: empty row %+v", name, r)
			}
		}
		if len(strings.Split(out, "\n")) < len(rows) {
			t.Errorf("%s: table too short:\n%s", name, out)
		}
	}
}
