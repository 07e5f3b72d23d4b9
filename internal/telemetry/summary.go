// Package telemetry is the hierarchical observer plane for the ESG
// reproduction: hosts fold their local netlogger instruments into
// mergeable summaries on an Epoch-aligned tick grid, site aggregators
// fold host summaries into site summaries, and a configurable-fanout
// tree folds sites up to a single grid root. Summaries travel as real
// simnet messages, so the cost of observing the grid is itself a
// measured quantity: per-tier frame and byte counts come out of the
// same accounting as the data path (EXPERIMENTS.md §S16 shows the
// wide-area observer traffic scaling with sites, not hosts, as the
// paper's monitoring architecture sketch in §3.4 requires).
//
// Determinism contract: a summary fold is bit-exact in any association
// and order. Histogram state is held in integer nanoseconds
// (netlogger.HistSnapshot) and counter/gauge sums rely on float64
// addition being exact for integral magnitudes below 2^53, so the grid
// root's folded summary — and therefore every encoded snapshot and
// alert — is byte-identical across tree fanouts and equal-seed runs.
package telemetry

import (
	"encoding/binary"
	"encoding/json"

	"esgrid/internal/netlogger"
)

// Summary is one node's mergeable view of a tick: every counter, gauge
// and histogram it (or its subtree) owns, plus the number of hosts
// folded in. Rows are sorted by name; merging is associative and
// commutative with the zero Summary as identity.
type Summary struct {
	Tick  int64 `json:"tick"`  // tick index on the Epoch-aligned grid
	Hosts int64 `json:"hosts"` // leaves folded into this summary
	netlogger.RegistrySnapshot
}

// Clone deep-copies s so the result is independent of the fold storage
// that produced it.
func (s Summary) Clone() Summary {
	out := s
	out.Counters = append([]netlogger.NamedValue(nil), s.Counters...)
	out.Gauges = append([]netlogger.NamedGauge(nil), s.Gauges...)
	out.Hists = make([]netlogger.NamedHist, len(s.Hists))
	for i, nh := range s.Hists {
		nh.H.Buckets = append([]netlogger.BucketCount(nil), nh.H.Buckets...)
		out.Hists[i] = nh
	}
	return out
}

// Counter returns the value of the named counter row, or 0 if absent.
func (s Summary) Counter(name string) float64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.V
		}
	}
	return 0
}

// Hist returns the named histogram row and whether it exists.
func (s Summary) Hist(name string) (netlogger.HistSnapshot, bool) {
	for _, h := range s.Hists {
		if h.Name == name {
			return h.H, true
		}
	}
	return netlogger.HistSnapshot{}, false
}

// Merge folds two summaries into a fresh one: matching rows merge,
// unmatched rows pass through, hosts add. Every aggregator folds its
// children's frames with it, one tick at a time.
func Merge(a, b Summary) Summary {
	out := Summary{Tick: a.Tick, Hosts: a.Hosts + b.Hosts}
	if a.Hosts == 0 && a.Tick == 0 {
		out.Tick = b.Tick
	}

	i, j := 0, 0
	for i < len(a.Counters) || j < len(b.Counters) {
		switch {
		case j >= len(b.Counters) || (i < len(a.Counters) && a.Counters[i].Name < b.Counters[j].Name):
			out.Counters = append(out.Counters, a.Counters[i])
			i++
		case i >= len(a.Counters) || b.Counters[j].Name < a.Counters[i].Name:
			out.Counters = append(out.Counters, b.Counters[j])
			j++
		default:
			out.Counters = append(out.Counters, netlogger.NamedValue{
				Name: a.Counters[i].Name, V: a.Counters[i].V + b.Counters[j].V,
			})
			i, j = i+1, j+1
		}
	}
	i, j = 0, 0
	for i < len(a.Gauges) || j < len(b.Gauges) {
		switch {
		case j >= len(b.Gauges) || (i < len(a.Gauges) && a.Gauges[i].Name < b.Gauges[j].Name):
			out.Gauges = append(out.Gauges, a.Gauges[i])
			i++
		case i >= len(a.Gauges) || b.Gauges[j].Name < a.Gauges[i].Name:
			out.Gauges = append(out.Gauges, b.Gauges[j])
			j++
		default:
			out.Gauges = append(out.Gauges, netlogger.NamedGauge{
				Name: a.Gauges[i].Name, G: a.Gauges[i].G.Merge(b.Gauges[j].G),
			})
			i, j = i+1, j+1
		}
	}
	i, j = 0, 0
	for i < len(a.Hists) || j < len(b.Hists) {
		switch {
		case j >= len(b.Hists) || (i < len(a.Hists) && a.Hists[i].Name < b.Hists[j].Name):
			out.Hists = append(out.Hists, a.Hists[i])
			i++
		case i >= len(a.Hists) || b.Hists[j].Name < a.Hists[i].Name:
			out.Hists = append(out.Hists, b.Hists[j])
			j++
		default:
			out.Hists = append(out.Hists, netlogger.NamedHist{
				Name: a.Hists[i].Name, H: a.Hists[i].H.Merge(b.Hists[j].H),
			})
			i, j = i+1, j+1
		}
	}
	return out
}

// SiteRow is the per-site drill-down the grid root publishes alongside
// the folded rollup: who is behind the aggregate, and whether any one
// site is dragging it down.
type SiteRow struct {
	Site       string  `json:"site"`
	Hosts      int64   `json:"hosts"`
	GoodputBps float64 `json:"goodput_bps"`
	StageP999s float64 `json:"stage_p999_s"`
	Status     string  `json:"status"`
}

// Frame is one telemetry message on the wire: a node's folded summary
// for a tick, plus the site drill-down rows its subtree covers. Frames
// are length-prefixed JSON; their encoded size is what the simulated
// network carries and what the per-tier traffic accounting charges.
type Frame struct {
	Node  string    `json:"node"`
	Tick  int64     `json:"tick"`
	Sum   Summary   `json:"sum"`
	Sites []SiteRow `json:"sites,omitempty"`
}

// EncodeFrame renders f as a 4-byte big-endian length followed by JSON.
func EncodeFrame(f Frame) ([]byte, error) {
	body, err := json.Marshal(f)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 4+len(body))
	binary.BigEndian.PutUint32(out, uint32(len(body)))
	copy(out[4:], body)
	return out, nil
}
