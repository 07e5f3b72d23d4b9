// Command esgbench regenerates every table and figure of the paper's
// evaluation (DESIGN.md experiment index). Each experiment prints the
// paper's reported values next to the values measured on this
// reproduction's simulated testbed.
//
// Usage:
//
//	esgbench [-exp all|name[,name...]] [-full] [-seed N] [-alerts s14.jsonl]
//
// esgbench -h lists the experiment names. -full runs the paper-scale
// durations (1 h Table 1, 14 h Figure 8); the default uses shorter
// metered windows that preserve the shape.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	esgrid "esgrid"
	"esgrid/internal/climate"
	"esgrid/internal/experiments"
)

// experimentTable lists every experiment in the order -exp all runs
// them.
var experimentTable = []struct {
	name string
	run  func(seed int64, full bool) error
}{
	{"table1", runTable1},
	{"figure8", runFigure8},
	{"chancache", runChanCache},
	{"parallel", runParallel},
	{"buffers", runBuffers},
	{"stripes", runStripes},
	{"replicasel", runReplicaSel},
	{"multisite", runMultiSite},
	{"hrm", runHRM},
	{"largefile", runLargeFile},
	{"cpu", runCPU},
	{"nws", runNWS},
	{"subset", runSubsetExp},
	{"scale", runScale},
	{"lifeline", runLifeline},
	{"chaos", runChaos},
	{"monitor", runMonitor},
	{"provenance", runProvenance},
	{"telemetry", runTelemetry},
	{"demo", runDemo},
}

func main() {
	var names []string
	runners := map[string]func(int64, bool) error{}
	for _, e := range experimentTable {
		names = append(names, e.name)
		runners[e.name] = e.run
	}
	expFlag := flag.String("exp", "all", "experiments to run, comma-separated (all, "+strings.Join(names, ", ")+")")
	full := flag.Bool("full", false, "paper-scale durations (1h Table 1, 14h Figure 8)")
	seed := flag.Int64("seed", 2000, "simulation seed")
	flag.StringVar(&traceFile, "trace", "", "write the lifeline experiment's event stream to this file (.jsonl for JSONL, anything else for ULM)")
	flag.StringVar(&alertsFile, "alerts", "", "write the monitor experiment's labeled alert stream to this JSONL file")
	flag.StringVar(&telemetryFile, "telemetry", "", "write the telemetry experiment's grid+alert stream to this JSONL file (replayable with esgmon -grid -jsonl)")
	flag.Parse()

	selected := names
	if *expFlag != "all" {
		selected = nil
		for _, name := range strings.Split(*expFlag, ",") {
			name = strings.TrimSpace(name)
			if _, ok := runners[name]; !ok {
				fmt.Fprintf(os.Stderr, "esgbench: unknown experiment %q\n", name)
				os.Exit(2)
			}
			selected = append(selected, name)
		}
	}
	for _, name := range selected {
		if err := runners[name](*seed, *full); err != nil {
			fmt.Fprintf(os.Stderr, "esgbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}

func header(title, paper string) {
	fmt.Println("================================================================")
	fmt.Println(title)
	if paper != "" {
		fmt.Println("paper reports: " + paper)
	}
	fmt.Println("================================================================")
}

func runTable1(seed int64, full bool) error {
	cfg := experiments.DefaultTable1Config()
	cfg.Seed = seed
	if !full {
		cfg.Duration = 10 * time.Minute
	}
	header(fmt.Sprintf("Table 1 — SC'00 striped transfer (%s metered window)", cfg.Duration),
		"peak 1.55 Gb/s @0.1s, 1.03 Gb/s @5s, sustained 512.9 Mb/s, 230.8 GB in 1h")
	r, err := experiments.RunTable1(cfg)
	if err != nil {
		return err
	}
	fmt.Print(experiments.Table("measured:", r.Rows()))
	hours := cfg.Duration.Hours()
	fmt.Printf("(scaled to one hour: %.1f GB; transfers started %d, completed %d)\n",
		r.TotalBytes/1e9/hours, r.TransfersStarted, r.TransfersDone)
	return nil
}

func runFigure8(seed int64, full bool) error {
	cfg := experiments.DefaultFigure8Config()
	cfg.Seed = seed
	if !full {
		cfg.Duration = 3 * time.Hour
		cfg.ParallelismSchedule = []int{1, 2, 4, 8}
	}
	header(fmt.Sprintf("Figure 8 — repeated 2 GB transfers, %s, with outages", cfg.Duration),
		"~80 Mb/s plateau (disk-limited), outage gaps with restarts, dips between transfers")
	r, err := experiments.RunFigure8(cfg)
	if err != nil {
		return err
	}
	fmt.Print(experiments.Table("measured:", r.Rows()))
	fmt.Println(r.Plot(100, 12))
	return nil
}

func runChanCache(seed int64, full bool) error {
	n := 10
	if full {
		n = 40
	}
	header("F8b — data channel caching ablation (post-SC'00 fix)",
		"TCP teardown between consecutive transfers causes the frequent bandwidth dips")
	r, err := experiments.RunChannelCache(seed, n)
	if err != nil {
		return err
	}
	fmt.Print(experiments.Table("measured:", r.Rows()))
	return nil
}

func runParallel(seed int64, full bool) error {
	mb := int64(64)
	if full {
		mb = 256
	}
	header("S1 — parallel TCP streams on a lossy WAN (§6.1)",
		"parallel streams 'can improve aggregate bandwidth' [Qiu et al.]")
	r, err := experiments.RunParallelSweep(seed, mb, []int{1, 2, 4, 8, 16}, 3e-4)
	if err != nil {
		return err
	}
	fmt.Print(experiments.Table("measured (622 Mb/s path, 30 ms RTT, loss 3e-4):", r.Rows()))
	return nil
}

func runBuffers(seed int64, full bool) error {
	mb := int64(64)
	if full {
		mb = 256
	}
	header("S2 — TCP buffer tuning (§7)",
		"buffer = bandwidth x delay 'critical to obtaining good performance'; 1 MB chosen at SC'00")
	r, err := experiments.RunBufferSweep(seed, mb,
		[]int{16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20},
		[]time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond})
	if err != nil {
		return err
	}
	fmt.Print(experiments.Table("measured (622 Mb/s path):", r.Rows()))
	return nil
}

func runStripes(seed int64, full bool) error {
	mb := int64(128)
	if full {
		mb = 512
	}
	header("S3 — striped transfer scaling (§6.1)",
		"striping 'increases parallelism by allowing data to be striped across multiple hosts'")
	r, err := experiments.RunStripeSweep(seed, mb, []int{1, 2, 4, 8})
	if err != nil {
		return err
	}
	fmt.Print(experiments.Table("measured (200 Mb/s per stripe node):", r.Rows()))
	return nil
}

func runReplicaSel(seed int64, full bool) error {
	files := 6
	if full {
		files = 12
	}
	header("S4 — replica selection policy (§4/§5)",
		"RM selects the 'best' replica from NWS bandwidth forecasts")
	r, err := experiments.RunReplicaSelection(seed, files, 64)
	if err != nil {
		return err
	}
	fmt.Print(experiments.Table("measured (sites at 45/155/622 Mb/s):", r.Rows()))
	return nil
}

func runMultiSite(seed int64, full bool) error {
	header("S5 — concurrent multi-site transfers (§4)",
		"'concurrent transfers from various sites can enhance the aggregate transfer rate'")
	r, err := experiments.RunMultiSite(seed, 4, 128)
	if err != nil {
		return err
	}
	fmt.Print(experiments.Table("measured (155 Mb/s per site):", r.Rows()))
	return nil
}

func runHRM(seed int64, full bool) error {
	accesses := 120
	if full {
		accesses = 500
	}
	header("S6 — HRM staging and disk cache (§4)",
		"HRM 'stages files from the MSS to its local disk cache' before WAN transfer")
	r, err := experiments.RunHRMStaging(seed, accesses)
	if err != nil {
		return err
	}
	fmt.Print(experiments.Table(fmt.Sprintf("measured (40x2GB archive, %d Zipf accesses):", accesses), r.Rows()))
	return nil
}

func runLargeFile(seed int64, full bool) error {
	gb := int64(8)
	if full {
		gb = 32
	}
	header("S7 — 64-bit offsets for >2 GB files (§7)",
		"'lack of support for large files limited the bandwidth we achieved at SC2000'")
	r, err := experiments.RunLargeFile(seed, gb)
	if err != nil {
		return err
	}
	fmt.Print(experiments.Table("measured (1 Gb/s path):", r.Rows()))
	return nil
}

func runCPU(seed int64, full bool) error {
	mb := int64(256)
	if full {
		mb = 1024
	}
	header("S8 — interrupt coalescing (§7)",
		"'high CPU usage is common with Gigabit Ethernet... interrupt coalescing can help'")
	r, err := experiments.RunCPUModel(seed, mb)
	if err != nil {
		return err
	}
	fmt.Print(experiments.Table("measured (gigabit host, 4 streams):", r.Rows()))
	return nil
}

func runNWS(seed int64, full bool) error {
	n := 4000
	if full {
		n = 20000
	}
	header("S9 — NWS forecaster accuracy (§5)",
		"NWS 'dynamically forecasts the performance... over a given time interval'")
	r, err := experiments.RunForecasters(seed, n)
	if err != nil {
		return err
	}
	fmt.Print(experiments.Table("measured (synthetic WAN bandwidth series):", r.Rows()))
	return nil
}

func runSubsetExp(seed int64, full bool) error {
	header("S10 — ESG-II server-side subsetting (§9 future work, implemented)",
		"'extraction and subsetting, similar to those available with DODS ... local to the data'")
	r, err := experiments.RunSubset(seed)
	if err != nil {
		return err
	}
	fmt.Print(experiments.Table("measured (tropical-Pacific selection over a 45 Mb/s WAN):", r.Rows()))
	return nil
}

func runScale(seed int64, full bool) error {
	mb := int64(8)
	clients := []int{16, 64, 256, 1024}
	if full {
		mb = 32
		clients = append(clients, 4096)
	}
	header("S11 — simulator scalability: N concurrent clients",
		"component-scoped incremental allocation keeps per-event cost O(component)")
	r, err := experiments.RunScale(seed, clients, mb)
	if err != nil {
		return err
	}
	fmt.Print(experiments.Table(fmt.Sprintf("measured (%d MB per client, 8 clients/site):", mb), r.Rows()))
	return nil
}

// traceFile receives the lifeline run's event stream (-trace flag);
// a .jsonl suffix selects JSONL, anything else ULM.
var traceFile string

func runLifeline(seed int64, full bool) error {
	cfg := experiments.DefaultLifelineConfig()
	cfg.Seed = seed
	if full {
		cfg.Files = 8
		cfg.FileMB = 256
	}
	header(fmt.Sprintf("S12 — NetLogger life-lines: %d x %d MB request, stage attribution", cfg.Files, cfg.FileMB),
		"life-lines expose an ~0.8 s TCP teardown + session setup pause between files (Figure 8)")
	r, err := experiments.RunLifeline(cfg)
	if err != nil {
		return err
	}
	fmt.Print(experiments.Table("measured:", r.Rows()))
	fmt.Println("\nlife-line (gantt over virtual time):")
	fmt.Println(r.Gantt)
	fmt.Println("stage attribution:")
	fmt.Println(r.Stages)
	fmt.Println("metrics registry:")
	fmt.Println(r.Metrics)
	if traceFile != "" {
		out := r.ULM
		if strings.HasSuffix(traceFile, ".jsonl") {
			out = r.JSONL
		}
		if err := os.WriteFile(traceFile, []byte(out), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %d events to %s\n", r.Events, traceFile)
	}
	return nil
}

func runChaos(seed int64, full bool) error {
	cfg := experiments.DefaultChaosConfig()
	cfg.Seed = seed
	if full {
		cfg.Files = 6
		cfg.FileMB = 32
		cfg.Levels = []int{0, 2, 4, 8, 16}
	}
	header(fmt.Sprintf("S13 — chaos replication: %d x %d MB under an escalating fault sweep (§7/§8)",
		cfg.Files, cfg.FileMB),
		"restart markers + the reliability plug-in let transfers survive crashes, outages and tape stalls")
	r, err := experiments.RunChaos(cfg)
	if err != nil {
		return err
	}
	fmt.Print(experiments.Table("measured (every level passes the recovery-invariant audit):", r.Rows()))
	return nil
}

// alertsFile receives the monitor experiment's alert JSONL (-alerts
// flag): one {"case":...} marker line per scenario followed by that
// run's alerts, so detector regressions diff cleanly in CI.
var alertsFile string

func runMonitor(seed int64, full bool) error {
	cfg := experiments.DefaultMonitorConfig()
	cfg.Seed = seed
	header("S14 — detector ground truth: labeled chaos replay (§5/§8)",
		"the SC'00 operators spotted stalls and throughput collapse by eye; the monitor must match them")
	r, err := experiments.RunMonitor(cfg)
	if err != nil {
		return err
	}
	fmt.Print(experiments.Table("measured (precision/recall vs labeled fault windows):", r.Rows()))
	if alertsFile != "" {
		var b strings.Builder
		for _, c := range r.Cases {
			fmt.Fprintf(&b, "{\"case\":%q,\"faults\":%d,\"detected\":%d}\n", c.Name, c.Faults, c.Detected)
			b.WriteString(c.AlertJSONL)
		}
		if err := os.WriteFile(alertsFile, []byte(b.String()), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote labeled alert stream to %s\n", alertsFile)
	}
	return nil
}

// telemetryFile receives the S16 grid+alert stream (-telemetry flag),
// replayable with esgmon -grid -jsonl.
var telemetryFile string

func runTelemetry(seed int64, full bool) error {
	cfg := experiments.TelemetryConfig{Seed: seed}
	if full {
		cfg.Cells = [][2]int{{4, 8}, {8, 8}, {16, 8}, {8, 16}, {8, 32}, {8, 64}}
		cfg.Ticks = 10
	}
	header("S16 — hierarchical telemetry: observer cost scales with sites, not hosts (§3.4)",
		"the SC'00 hour was watched through flat per-host NetLogger streams; the tree folds them")
	r, err := experiments.RunTelemetry(cfg)
	if err != nil {
		return err
	}
	fmt.Print(experiments.Table("measured (WAN = observer traffic above the leaf tier):", r.Rows()))
	if telemetryFile != "" {
		if err := os.WriteFile(telemetryFile, []byte(r.ReplayJSONL), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote grid telemetry stream to %s\n", telemetryFile)
	}
	return nil
}

func runProvenance(seed int64, full bool) error {
	cfg := experiments.DefaultProvenanceConfig()
	cfg.Seed = seed
	faults := 8
	if full {
		cfg.Files = 4
		cfg.FileMB = 16
		faults = 16
	}
	header("S15 — causal event provenance: why did this retry fire?",
		"the SC'00 operators diagnosed Figure 8's gaps by eye; the flight recorder answers causally")
	r, err := experiments.RunProvenance(cfg, faults)
	if err != nil {
		return err
	}
	fmt.Print(experiments.Table("measured (flight recorder attached to the S13 chaos run):", r.Rows()))
	fmt.Println("\nprovenance chain (root cause first):")
	fmt.Print(r.Chart)
	return nil
}

func runDemo(seed int64, full bool) error {
	header("E2E — the SC'00 demonstration (Figures 2-4)",
		"attribute query -> metadata -> RM (NWS selection, HRM staging) -> GridFTP -> visualization")
	tb, err := esgrid.NewTestbed(esgrid.TestbedConfig{Seed: seed})
	if err != nil {
		return err
	}
	q := esgrid.Query{
		Dataset:   "pcm-b06.44",
		Variables: []string{climate.VarTemperature, climate.VarCloudCover},
		From:      esgrid.Month(1998, 6),
		To:        esgrid.Month(1998, 8),
	}
	var (
		req          *esgrid.Request
		elapsed      time.Duration
		monitor, viz string
	)
	tb.Run(func() {
		t0 := tb.Clock.Now()
		if req, err = tb.Fetch(q); err != nil {
			return
		}
		if err = req.Wait(); err != nil {
			return
		}
		elapsed = tb.Clock.Now().Sub(t0)
		monitor = esgrid.RenderMonitor(req, 100)
		var fld *esgrid.Field
		if fld, err = tb.Analyze("pcm", climate.VarTemperature, 1998, 7); err == nil {
			viz = fld.RenderASCII(96)
		}
	})
	if err != nil {
		return err
	}
	fmt.Print(experiments.Table("measured:", []experiments.Row{
		{Label: "query", Value: fmt.Sprintf("dataset=%s variables=%s period=%s..%s",
			q.Dataset, strings.Join(q.Variables, ","), q.From.Format("2006-01"), q.To.Format("2006-01"))},
		{Label: "files resolved and transferred", Value: fmt.Sprint(len(req.Status()))},
		{Label: "total data moved", Value: fmt.Sprintf("%.1f GB", float64(req.TotalReceived())/1e9)},
		{Label: "end-to-end time", Value: elapsed.Round(time.Second).String()},
	}))
	fmt.Println("\ntransfer monitor (Figure 4 analog):")
	fmt.Println(monitor)
	fmt.Println("visualization (Figure 3 analog):")
	fmt.Println(viz)
	return nil
}
