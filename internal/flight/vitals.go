// Core-profiler surface: a point-in-time bundle of event-core and
// data-path vital signs, renderable as the esgprof vitals panel.
package flight

import (
	"fmt"
	"sort"
	"strings"

	"esgrid/internal/vtime"
)

// Vitals bundles the core profiler's inputs: the event core's own
// stats, the recorder's ring occupancy, and how often the simnet
// allocator found a component's record (membership, order, CSR flatten)
// still live (zero when no network is attached).
type Vitals struct {
	Core       vtime.CoreStats
	Rec        Stats
	CSRHits    uint64 // allocation passes that found their component's record live
	CSRLookups uint64 // allocation passes (hits + gathers)
}

// CSRHitRate returns hits/lookups in [0,1] (0 when no lookups).
func (v Vitals) CSRHitRate() float64 {
	if v.CSRLookups == 0 {
		return 0
	}
	return float64(v.CSRHits) / float64(v.CSRLookups)
}

// Render formats the vitals as the esgprof text panel.
func (v Vitals) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CORE VITALS @ t=%.6fs\n", v.Core.Now.Seconds())
	fmt.Fprintf(&b, "  heap      %6d live  (max %d)\n", v.Core.HeapLen, v.Core.HeapMax)
	fmt.Fprintf(&b, "  zero-dly  %6d live  (max %d)\n", v.Core.ImmLen, v.Core.ImmMax)
	fmt.Fprintf(&b, "  arena     %6d slots (%d free)\n", v.Core.ArenaSlots, v.Core.FreeSlots)
	fmt.Fprintf(&b, "  events    %d scheduled / %d fired / %d cancelled / %d rearmed\n",
		v.Core.Scheduled, v.Core.Fired, v.Core.Cancelled, v.Core.Rearmed)
	fmt.Fprintf(&b, "  recorder  core %d written (%d retained), data %d written (%d retained)\n",
		v.Rec.CoreWritten, v.Rec.CoreRetained, v.Rec.DataWritten, v.Rec.DataRetained)
	if v.CSRLookups > 0 {
		fmt.Fprintf(&b, "  csr-cache %d/%d hits (%.1f%%)\n",
			v.CSRHits, v.CSRLookups, 100*v.CSRHitRate())
	}
	return b.String()
}

// RenderSites formats the per-site activity table of a record stream,
// busiest site first.
func RenderSites(recs []Record) string {
	counts := SiteCounts(recs)
	if len(counts) == 0 {
		return "(no records)\n"
	}
	w := len("site")
	for _, c := range counts {
		if len(c.Site) > w {
			w = len(c.Site)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s  %9s %9s %9s %9s\n", w, "site", "sched", "fired", "cancel", "rearm")
	for _, c := range counts {
		fmt.Fprintf(&b, "%-*s  %9d %9d %9d %9d\n", w, c.Site, c.Schedules, c.Fires, c.Cancels, c.Rearms)
	}
	return b.String()
}

// WallReport renders the sampled wall-time attribution of s as a table
// of per-site wall milliseconds, costliest first. Empty when profiling
// is off. Wall numbers are measurements of the host machine, vary run
// to run, and never appear in flight dumps.
func WallReport(s *vtime.Sim) string {
	prof := s.WallProfile()
	if prof == nil {
		return ""
	}
	type row struct {
		site string
		ns   int64
	}
	var rows []row
	var total int64
	for i, ns := range prof {
		if ns > 0 {
			rows = append(rows, row{vtime.SiteName(vtime.Site(i)), ns})
			total += ns
		}
	}
	if len(rows) == 0 {
		return "WALL PROFILE: no samples\n"
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].ns != rows[j].ns {
			return rows[i].ns > rows[j].ns
		}
		return rows[i].site < rows[j].site
	})
	w := len("site")
	for _, r := range rows {
		if len(r.site) > w {
			w = len(r.site)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "WALL PROFILE (sampled 1/%d, scaled)\n", vtime.WallSampleEvery)
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-*s  %9.3fms  %5.1f%%\n", w, r.site,
			float64(r.ns)/1e6, 100*float64(r.ns)/float64(total))
	}
	return b.String()
}
