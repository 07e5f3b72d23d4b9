// Life-line analysis: turn a trace's span tree into the artifacts the
// paper built from NetLogger life-lines — a per-stage attribution of
// where each request's wall time went, the inter-file gap signature that
// exposed Figure 8's ~0.8 s TCP teardown pauses, an ASCII gantt chart,
// ULM/JSONL exports of the raw event stream, and the JSONL export's one
// decoder.
package netlogger

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"strings"
	"time"
)

// StageTotal is attributed time for one stage.
type StageTotal struct {
	Stage string
	Dur   time.Duration
}

// Gap is idle time between two consecutive data spans of a trace — the
// teardown/setup pause between files that the paper measured at ~0.8 s.
type Gap struct {
	After  SpanRecord // data span preceding the gap
	Before SpanRecord // data span following the gap
	Dur    time.Duration
}

// TraceAnalysis is the stage attribution of one trace.
type TraceAnalysis struct {
	TraceID    int
	Root       SpanRecord
	Spans      []SpanRecord // all spans of the trace, by ID
	Wall       time.Duration
	Stages     []StageTotal // nonzero stages, StageOrder first, then others by name
	Attributed time.Duration
	Other      time.Duration // wall time no staged span covers
	Coverage   float64       // Attributed / Wall
	Gaps       []Gap
}

// AnalyzeTrace attributes the wall time of the given trace to stages.
// Every instant of the root span's extent is assigned to the deepest
// finished span carrying a stage tag that covers it (ties broken by
// stage priority, then span ID); instants no staged span covers count as
// Other. By construction Attributed+Other == Wall exactly; Coverage
// reports the attributed fraction.
func AnalyzeTrace(spans []SpanRecord, traceID int) TraceAnalysis {
	a := TraceAnalysis{TraceID: traceID}
	depth := map[int]int{}
	parent := map[int]int{}
	for _, r := range spans {
		if r.TraceID != traceID {
			continue
		}
		a.Spans = append(a.Spans, r)
		parent[r.ID] = r.Parent
	}
	sort.Slice(a.Spans, func(i, j int) bool { return a.Spans[i].ID < a.Spans[j].ID })
	var depthOf func(id int) int
	depthOf = func(id int) int {
		if d, ok := depth[id]; ok {
			return d
		}
		p := parent[id]
		d := 0
		if p != 0 {
			d = depthOf(p) + 1
		}
		depth[id] = d
		return d
	}
	for _, r := range a.Spans {
		if r.Parent == 0 {
			a.Root = r
		}
		depthOf(r.ID)
	}
	if !a.Root.Done {
		return a
	}
	a.Wall = a.Root.Dur()

	// Staged, finished spans clipped to the root extent drive attribution.
	var staged []SpanRecord
	cuts := []time.Time{a.Root.Start, a.Root.End}
	for _, r := range a.Spans {
		if r.Stage == "" || !r.Done {
			continue
		}
		staged = append(staged, r)
		cuts = append(cuts, r.Start, r.End)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i].Before(cuts[j]) })
	totals := map[string]time.Duration{}
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		if !hi.After(lo) || !lo.Before(a.Root.End) || !hi.After(a.Root.Start) {
			continue
		}
		if lo.Before(a.Root.Start) {
			lo = a.Root.Start
		}
		if hi.After(a.Root.End) {
			hi = a.Root.End
		}
		var best *SpanRecord
		for k := range staged {
			r := &staged[k]
			if r.Start.After(lo) || r.End.Before(hi) {
				continue
			}
			if best == nil || deeper(*r, *best, depth) {
				best = r
			}
		}
		if best != nil {
			totals[best.Stage] += hi.Sub(lo)
		}
	}
	for _, stage := range StageOrder {
		if d := totals[stage]; d > 0 {
			a.Stages = append(a.Stages, StageTotal{stage, d})
			a.Attributed += d
			delete(totals, stage)
		}
	}
	for _, stage := range slices.Sorted(maps.Keys(totals)) {
		a.Stages = append(a.Stages, StageTotal{stage, totals[stage]})
		a.Attributed += totals[stage]
	}
	a.Other = a.Wall - a.Attributed
	if a.Wall > 0 {
		a.Coverage = float64(a.Attributed) / float64(a.Wall)
	}

	// Gaps between consecutive data spans, in start order.
	var data []SpanRecord
	for _, r := range staged {
		if r.Stage == StageData {
			data = append(data, r)
		}
	}
	sort.Slice(data, func(i, j int) bool { return data[i].Start.Before(data[j].Start) })
	for i := 1; i < len(data); i++ {
		if d := data[i].Start.Sub(data[i-1].End); d > 0 {
			a.Gaps = append(a.Gaps, Gap{After: data[i-1], Before: data[i], Dur: d})
		}
	}
	return a
}

// deeper reports whether span x should win attribution over span y:
// greater tree depth first, then higher stage priority, then higher ID
// (later-opened span).
func deeper(x, y SpanRecord, depth map[int]int) bool {
	if depth[x.ID] != depth[y.ID] {
		return depth[x.ID] > depth[y.ID]
	}
	if stagePriority[x.Stage] != stagePriority[y.Stage] {
		return stagePriority[x.Stage] > stagePriority[y.Stage]
	}
	return x.ID > y.ID
}

// MeanGap returns the mean inter-file gap (0 when there are none).
func (a TraceAnalysis) MeanGap() time.Duration {
	if len(a.Gaps) == 0 {
		return 0
	}
	var sum time.Duration
	for _, g := range a.Gaps {
		sum += g.Dur
	}
	return sum / time.Duration(len(a.Gaps))
}

// RenderStageTable formats the per-stage breakdown with percentages.
func (a TraceAnalysis) RenderStageTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %12s %7s\n", "stage", "time", "share")
	for _, st := range a.Stages {
		share := 0.0
		if a.Wall > 0 {
			share = float64(st.Dur) / float64(a.Wall) * 100
		}
		fmt.Fprintf(&b, "%-16s %12s %6.2f%%\n", st.Stage, fmtDur(st.Dur), share)
	}
	otherShare := 0.0
	if a.Wall > 0 {
		otherShare = float64(a.Other) / float64(a.Wall) * 100
	}
	fmt.Fprintf(&b, "%-16s %12s %6.2f%%\n", "(other)", fmtDur(a.Other), otherShare)
	fmt.Fprintf(&b, "%-16s %12s %6.2f%%\n", "total", fmtDur(a.Wall), 100.0)
	return b.String()
}

// RenderGantt draws the span tree as an ASCII life-line chart: one row
// per span in tree pre-order, indented labels on the left, '#' bars on a
// shared time axis spanning the root.
func (a TraceAnalysis) RenderGantt(width int) string {
	if width < 20 {
		width = 20
	}
	if !a.Root.Done || a.Wall <= 0 {
		return "(trace incomplete)\n"
	}
	children := map[int][]SpanRecord{}
	for _, r := range a.Spans {
		children[r.Parent] = append(children[r.Parent], r)
	}
	labelW := 0
	var order []struct {
		r      SpanRecord
		indent int
	}
	var walk func(id, indent int)
	walk = func(id, indent int) {
		// Each span has one parent, so each bucket is sorted once.
		cs := children[id]
		sort.Slice(cs, func(i, j int) bool {
			if !cs[i].Start.Equal(cs[j].Start) {
				return cs[i].Start.Before(cs[j].Start)
			}
			return cs[i].ID < cs[j].ID
		})
		for _, c := range cs {
			order = append(order, struct {
				r      SpanRecord
				indent int
			}{c, indent})
			if w := indent*2 + len(ganttLabel(c)); w > labelW {
				labelW = w
			}
			walk(c.ID, indent+1)
		}
	}
	walk(0, 0)
	if labelW > 40 {
		labelW = 40
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s |%s|\n", labelW, "span [stage]",
		center(fmt.Sprintf("0 .. %s", fmtDur(a.Wall)), width))
	for _, row := range order {
		label := strings.Repeat("  ", row.indent) + ganttLabel(row.r)
		if len(label) > labelW {
			label = label[:labelW]
		}
		lo := int(float64(row.r.Start.Sub(a.Root.Start)) / float64(a.Wall) * float64(width))
		hi := int(float64(row.r.End.Sub(a.Root.Start)) / float64(a.Wall) * float64(width))
		if !row.r.Done {
			hi = width
		}
		if lo < 0 {
			lo = 0
		}
		if hi > width {
			hi = width
		}
		if hi <= lo {
			hi = lo + 1
		}
		if hi > width {
			lo, hi = width-1, width
		}
		bar := strings.Repeat(".", lo) + strings.Repeat("#", hi-lo) +
			strings.Repeat(".", width-hi)
		fmt.Fprintf(&b, "%-*s |%s|\n", labelW, label, bar)
	}
	return b.String()
}

func ganttLabel(r SpanRecord) string {
	if r.Stage != "" {
		return fmt.Sprintf("%s [%s]", r.Name, r.Stage)
	}
	return r.Name
}

func center(s string, w int) string {
	if len(s) >= w {
		return s[:w]
	}
	left := (w - len(s)) / 2
	return strings.Repeat(" ", left) + s + strings.Repeat(" ", w-left-len(s))
}

func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3fs", d.Seconds())
}

// ULM renders the event log in NetLogger's Universal Logger Message
// format: one "DATE=... HOST=... NL.EVNT=... k=v" line per event, fields
// in sorted key order. Values containing spaces are double-quoted. The
// output is deterministic for a deterministic event stream.
func (l *Log) ULM() string {
	var b strings.Builder
	for _, ev := range l.Events() {
		ts := ev.Time.UTC()
		fmt.Fprintf(&b, "DATE=%s.%06d HOST=%s NL.EVNT=%s",
			ts.Format("20060102150405"), ts.Nanosecond()/1000, ev.Host, ev.Name)
		for _, k := range slices.Sorted(maps.Keys(ev.Fields)) {
			v := ev.Fields[k]
			if strings.ContainsAny(v, " \t") || v == "" {
				v = `"` + v + `"`
			}
			fmt.Fprintf(&b, " %s=%s", k, v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// jsonlRecord is one line of the JSONL export, for JSONL and ParseJSONL.
type jsonlRecord struct {
	TS     string            `json:"ts"`
	Host   string            `json:"host"`
	Event  string            `json:"event"`
	Fields map[string]string `json:"fields,omitempty"`
}

// JSONL renders the event log as one JSON object per line with fixed
// keys (ts, host, event, fields). Map keys are emitted sorted by
// encoding/json, so equal logs serialize identically. The export is
// canonical: lines are ordered by timestamp, and events sharing an
// instant (goroutines woken by the same simulated event emit at the
// same virtual time) are tie-broken by their encoded form. The
// simulated scheduler already fixes their emit order for a seed at any
// GOMAXPROCS; the sort also makes the stream independent of emit order,
// so an observer or a refactor that reorders same-instant emits leaves
// it unchanged; the equal-seed and pure-observer golden tests compare
// these streams.
func (l *Log) JSONL() string {
	events := l.Events()
	type row struct {
		t    time.Time
		line []byte
	}
	rows := make([]row, len(events))
	for i, ev := range events {
		line, _ := json.Marshal(jsonlRecord{
			TS:     ev.Time.UTC().Format(time.RFC3339Nano),
			Host:   ev.Host,
			Event:  ev.Name,
			Fields: ev.Fields,
		})
		rows[i] = row{t: ev.Time, line: line}
	}
	// Append order is already time-ordered (one clock, monotone), so
	// the stable sort only reorders equal-instant runs.
	sort.SliceStable(rows, func(i, j int) bool {
		if !rows[i].t.Equal(rows[j].t) {
			return rows[i].t.Before(rows[j].t)
		}
		return string(rows[i].line) < string(rows[j].line)
	})
	var b strings.Builder
	for _, r := range rows {
		b.Write(r.line)
		b.WriteByte('\n')
	}
	return b.String()
}

// ParseJSONL decodes a JSONL export back into its events, in stream
// order. Blank lines are skipped; a line that does not decode is an
// error naming its line number.
func ParseJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []Event
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec jsonlRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("line %d: %w", n, err)
		}
		ts, err := time.Parse(time.RFC3339Nano, rec.TS)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", n, err)
		}
		out = append(out, Event{Time: ts, Host: rec.Host, Name: rec.Event, Fields: rec.Fields})
	}
	return out, sc.Err()
}
