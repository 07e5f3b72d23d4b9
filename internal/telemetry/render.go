package telemetry

import (
	"encoding/json"
	"fmt"
	"strings"

	"esgrid/internal/monitor"
)

// jsonlLine is one record of the telemetry stream esgmon replays: a
// grid snapshot or an alert, tagged by kind so a reader can dispatch
// without sniffing fields.
type jsonlLine struct {
	Kind  string         `json:"kind"`
	Grid  *GridSnapshot  `json:"grid,omitempty"`
	Alert *monitor.Alert `json:"alert,omitempty"`
}

// DecodeTelemetryLine parses one line of a telemetry JSONL stream.
func DecodeTelemetryLine(line string) (kind string, g GridSnapshot, a monitor.Alert, err error) {
	var l jsonlLine
	if err = json.Unmarshal([]byte(line), &l); err != nil {
		return "", g, a, fmt.Errorf("telemetry: bad line: %w", err)
	}
	if l.Grid != nil {
		g = *l.Grid
	}
	if l.Alert != nil {
		a = *l.Alert
	}
	return l.Kind, g, a, nil
}

// appendLine encodes one record onto the JSONL stream; callers hold
// p.mu.
func (p *Plane) appendLine(l jsonlLine) {
	b, err := json.Marshal(l)
	if err != nil {
		if p.err == nil {
			p.err = err
		}
		return
	}
	p.lines = append(p.lines, string(b))
}

// TelemetryJSONL renders the full record stream — snapshots and alerts
// interleaved in fold order — one JSON object per line.
func (p *Plane) TelemetryJSONL() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.lines) == 0 {
		return ""
	}
	return strings.Join(p.lines, "\n") + "\n"
}

// RenderGridSnapshot formats one grid snapshot, with optional traffic
// tiers, as the terminal view esgmon -grid shows.
func RenderGridSnapshot(g GridSnapshot, traffic []TierTraffic) string {
	var b strings.Builder
	fmt.Fprintf(&b, "grid @ %s  tick %d  status %s\n", g.TS, g.Tick, g.Status)
	fmt.Fprintf(&b, "  hosts %d across %d sites, goodput %s\n",
		g.Hosts, g.Sites, fmtBps(g.GoodputBps))
	if len(g.Stages) > 0 {
		fmt.Fprintf(&b, "  %-24s %8s %9s %9s %9s %9s\n",
			"stage", "count", "p50", "p99", "p999", "max")
		for _, s := range g.Stages {
			fmt.Fprintf(&b, "  %-24s %8d %8.3fs %8.3fs %8.3fs %8.3fs\n",
				s.Stage, s.N, s.P50, s.P99, s.P999, s.Max)
		}
	}
	if len(g.SiteRows) > 0 {
		fmt.Fprintf(&b, "  %-16s %6s %14s %10s %s\n",
			"site", "hosts", "goodput", "p999", "status")
		for _, r := range g.SiteRows {
			fmt.Fprintf(&b, "  %-16s %6d %14s %9.3fs %s\n",
				r.Site, r.Hosts, fmtBps(r.GoodputBps), r.StageP999s, r.Status)
		}
	}
	if len(traffic) > 0 {
		fmt.Fprintf(&b, "  observer traffic:\n")
		for _, t := range traffic {
			fmt.Fprintf(&b, "    %-12s %6d frames  %10d bytes\n", t.Tier, t.Frames, t.Bytes)
		}
	}
	return b.String()
}

func fmtBps(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2f Gb/s", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2f Mb/s", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.2f kb/s", v/1e3)
	}
	return fmt.Sprintf("%.0f b/s", v)
}
