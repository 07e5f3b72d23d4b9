// Command esgmon is the grid operations console: the SC'00 demo's
// hand-run NetLogger/NWS wall display as a CLI. It either tails a live
// monitor over esgrpc (the esgd -mon endpoint) or replays a recorded
// NetLogger JSONL stream offline through the same detector battery.
//
// Usage:
//
//	esgmon -addr host:9111 [-interval 2s] [-once] [-alerts-only]
//	esgmon -jsonl run.jsonl [-alerts]
//	esgmon -grid -jsonl s16.jsonl [-alerts]
//
// Live mode polls mon.snapshot and mon.alerts: new alerts stream to
// stdout as they fire, and the text dashboard (per-site goodput, the
// transfer table, stage latencies, top alerts) redraws each interval.
// Replay mode feeds the recorded events through a fresh monitor and
// prints the final dashboard plus every alert the detectors raise.
//
// -grid replays the hierarchical telemetry plane (internal/telemetry)
// instead: it walks a grid+alert stream written by `esgbench -exp
// telemetry -telemetry file.jsonl` and prints each tick's grid rollup.
// The plane has no live endpoint, so -grid takes -jsonl only.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"esgrid/internal/esgrpc"
	"esgrid/internal/gsi"
	"esgrid/internal/monitor"
	"esgrid/internal/netlogger"
	"esgrid/internal/telemetry"
	"esgrid/internal/transport"
	"esgrid/internal/vtime"
)

func main() {
	addr := flag.String("addr", "", "live mode: esgrpc monitor endpoint (esgd -mon address)")
	jsonl := flag.String("jsonl", "", "replay mode: NetLogger JSONL file to feed the detectors")
	interval := flag.Duration("interval", 2*time.Second, "live poll interval")
	once := flag.Bool("once", false, "live mode: poll a single frame and exit")
	alertsOnly := flag.Bool("alerts-only", false, "live mode: tail alerts without the dashboard")
	alerts := flag.Bool("alerts", false, "replay mode: print alert JSONL instead of the dashboard")
	grid := flag.Bool("grid", false, "replay mode: read a telemetry grid+alert stream instead of NetLogger events")
	width := flag.Int("width", 96, "dashboard width")
	credPath := flag.String("cred", "", "identity file for GSI authentication")
	trustPath := flag.String("trust", "", "trust anchor file")
	flag.Parse()

	switch {
	case *grid && *jsonl != "":
		if err := gridReplay(*jsonl, *alerts); err != nil {
			log.Fatalf("esgmon: %v", err)
		}
	case *grid:
		usage()
	case *jsonl != "":
		if err := replay(*jsonl, *alerts, *width); err != nil {
			log.Fatalf("esgmon: %v", err)
		}
	case *addr != "":
		if err := live(*addr, *interval, *once, *alertsOnly, *width, loadAuth(*credPath, *trustPath)); err != nil {
			log.Fatalf("esgmon: %v", err)
		}
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: esgmon -addr host:port | -jsonl events.jsonl | -grid -jsonl grid.jsonl  (see -h)")
	os.Exit(2)
}

func loadAuth(credPath, trustPath string) *gsi.Config {
	if credPath == "" {
		return nil
	}
	id, err := gsi.LoadIdentity(credPath)
	if err != nil {
		log.Fatal(err)
	}
	trust, err := gsi.LoadTrustStore(trustPath)
	if err != nil {
		log.Fatal(err)
	}
	return &gsi.Config{Identity: id, Trust: trust}
}

// jsonlEvent mirrors netlogger's JSONL encoding.
type jsonlEvent struct {
	TS     time.Time         `json:"ts"`
	Host   string            `json:"host"`
	Event  string            `json:"event"`
	Fields map[string]string `json:"fields"`
}

// replay feeds a recorded event stream through a fresh monitor: the
// same detectors, rings and digests as the live plane, advanced purely
// on event timestamps.
func replay(path string, alertsOnly bool, width int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	m := monitor.New(monitor.Config{})
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var last time.Time
	n := 0
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var je jsonlEvent
		if err := json.Unmarshal(line, &je); err != nil {
			return fmt.Errorf("line %d: %w", n+1, err)
		}
		m.Observe(netlogger.Event{Time: je.TS, Host: je.Host, Name: je.Event, Fields: je.Fields})
		last = je.TS
		n++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if !last.IsZero() {
		m.AdvanceTo(last)
	}
	if alertsOnly {
		fmt.Print(m.AlertJSONL())
		return nil
	}
	fmt.Printf("replayed %d events from %s\n\n", n, path)
	fmt.Print(monitor.RenderDashboard(m.Snapshot(m.Now()), width))
	return nil
}

// gridReplay walks a telemetry JSONL stream (grid snapshots and alerts
// interleaved in fold order) and prints each tick's rollup, or just the
// alert stream with -alerts.
func gridReplay(path string, alertsOnly bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var alerts []monitor.Alert
	ticks, n := 0, 0
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		n++
		kind, g, a, err := telemetry.DecodeTelemetryLine(line)
		if err != nil {
			return fmt.Errorf("line %d: %w", n, err)
		}
		switch kind {
		case "grid":
			ticks++
			if !alertsOnly {
				fmt.Print(telemetry.RenderGridSnapshot(g, nil))
			}
		case "alert":
			alerts = append(alerts, a)
			if !alertsOnly {
				fmt.Printf("ALERT %s  %-16s %-8s %-16s %s\n", a.TS, a.Detector, a.Host, a.Subject, a.Detail)
			}
		default:
			return fmt.Errorf("line %d: unknown record kind %q", n, kind)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if alertsOnly {
		fmt.Print(monitor.EncodeAlerts(alerts))
		return nil
	}
	fmt.Printf("replayed %d ticks, %d grid alerts from %s\n", ticks, len(alerts), path)
	return nil
}

// live tails a remote monitor: alerts stream as they fire, the
// dashboard redraws each interval.
func live(addr string, interval time.Duration, once, alertsOnly bool, width int, auth *gsi.Config) error {
	cli, err := esgrpc.Dial(vtime.Real{}, transport.Real{}, addr, auth)
	if err != nil {
		return err
	}
	defer cli.Close()

	since := 0
	for {
		var ar monitor.AlertsReply
		if err := cli.Call("mon.alerts", monitor.AlertsRequest{Since: since}, &ar); err != nil {
			return err
		}
		for _, a := range ar.Alerts {
			fmt.Printf("ALERT %s  %-13s %-12s %-24s %s\n", a.TS, a.Detector, a.Host, a.Subject, a.Detail)
		}
		since = ar.Next
		if !alertsOnly {
			var snap monitor.Snapshot
			if err := cli.Call("mon.snapshot", nil, &snap); err != nil {
				return err
			}
			fmt.Print(monitor.RenderDashboard(snap, width))
		}
		if once {
			return nil
		}
		time.Sleep(interval) //esglint:wallclock live tail paces real polls of a running daemon
	}
}
