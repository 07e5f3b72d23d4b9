package chaos

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"
	"time"

	"esgrid/internal/gridftp"
	"esgrid/internal/netlogger"
)

// FileResult is one transferred file's outcome, as the experiment
// harness observed it (RM status + content hashes).
type FileResult struct {
	Name           string
	Size           int64
	RequestedBytes int64 // Σ extents requested across attempts (rm.FileStatus)
	Attempts       int
	Done           bool
	Err            string
	GotHash        string // hash of the bytes that landed at the destination
	WantHash       string // hash of the source content
}

// Invariants configures the post-run recovery-correctness audit.
type Invariants struct {
	// MaxRefetchBytesPerFault bounds total re-fetched bytes (requested
	// minus size, summed over files) at this many bytes per fault
	// activation. With zero activations the bound is exactly zero:
	// extent restart must never re-request landed data on a clean run.
	MaxRefetchBytesPerFault int64
	// RetryBackoff is the RM's configured backoff; each retry span must
	// account for exactly this much wall time.
	RetryBackoff time.Duration
	// Slack absorbs rounding in the retry-span accounting.
	Slack time.Duration
}

// Report is the audit outcome.
type Report struct {
	Violations    []string
	Files         int
	Restarts      int           // rm.restart events beyond each file's first attempt
	RefetchBytes  int64         // Σ max(0, RequestedBytes − Size)
	RetrySpanTime time.Duration // Σ StageRetry span durations
	ExpectedRetry time.Duration // Σ (Attempts−1) · RetryBackoff
}

// Err returns nil when every invariant held, else one error listing all
// violations.
func (r Report) Err() error {
	if len(r.Violations) == 0 {
		return nil
	}
	return fmt.Errorf("chaos: %d invariant violation(s): %v", len(r.Violations), r.Violations)
}

// Check audits a finished run: every request completed, content matches
// the source, re-fetch overhead is bounded by the number of injected
// faults, restart markers are well-formed and monotone, and retry spans
// account for the backoff the RM was configured to pay.
func (inv Invariants) Check(files []FileResult, events []netlogger.Event, spans []netlogger.SpanRecord, activations int) Report {
	rep := Report{Files: len(files)}
	bad := func(format string, args ...any) {
		rep.Violations = append(rep.Violations, fmt.Sprintf(format, args...))
	}

	// 1. Completion + 2. content-hash equality.
	totalAttempts := 0
	for _, f := range files {
		totalAttempts += f.Attempts
		if !f.Done {
			bad("%s: did not complete: %s", f.Name, f.Err)
			continue
		}
		if f.GotHash != f.WantHash {
			bad("%s: content hash mismatch: got %s want %s", f.Name, f.GotHash, f.WantHash)
		}
		if f.RequestedBytes < f.Size {
			bad("%s: requested %d bytes < size %d", f.Name, f.RequestedBytes, f.Size)
		}
		rep.RefetchBytes += max(0, f.RequestedBytes-f.Size)
	}

	// 3. Re-fetch overhead bounded by fault count.
	bound := inv.MaxRefetchBytesPerFault * int64(activations)
	if rep.RefetchBytes > bound {
		bad("re-fetched %d bytes > bound %d (%d per fault × %d faults)",
			rep.RefetchBytes, bound, inv.MaxRefetchBytesPerFault, activations)
	}

	// 4. Restart markers: per file, each rm.restart's extents must be
	// sorted and non-overlapping, and coverage must shrink monotonically
	// — a later attempt never asks for bytes an earlier attempt did not.
	restarts := restartsByFile(events)
	for _, name := range slices.Sorted(maps.Keys(restarts)) {
		var prev []gridftp.Extent
		for i, ev := range restarts[name] {
			exts, err := parseRestart(ev)
			if err != nil {
				bad("%s: restart %d: %v", name, i, err)
				continue
			}
			if i > 0 {
				rep.Restarts++
			}
			if err := wellFormed(exts); err != nil {
				bad("%s: restart %d: %v", name, i, err)
			}
			if i > 0 && !containedIn(exts, prev) {
				bad("%s: restart %d requests bytes outside attempt %d's extents (%s ⊄ %s)",
					name, i, i-1, gridftp.FormatRanges(exts), gridftp.FormatRanges(prev))
			}
			if len(exts) > 0 {
				prev = exts
			}
		}
	}

	// 5. Retry spans account for the wall time lost to faults: the RM
	// pays exactly RetryBackoff per extra attempt, in a traced
	// StageRetry span.
	for _, sp := range spans {
		if sp.Stage == netlogger.StageRetry {
			rep.RetrySpanTime += sp.Dur()
		}
	}
	rep.ExpectedRetry = time.Duration(totalAttempts-len(files)) * inv.RetryBackoff
	if inv.RetryBackoff > 0 {
		diff := rep.RetrySpanTime - rep.ExpectedRetry
		if diff < 0 {
			diff = -diff
		}
		if diff > inv.Slack {
			bad("retry spans total %v but %d extra attempt(s) × %v backoff = %v",
				rep.RetrySpanTime, totalAttempts-len(files), inv.RetryBackoff, rep.ExpectedRetry)
		}
	}
	return rep
}

// restartsByFile collects rm.restart events per file, in log order.
func restartsByFile(events []netlogger.Event) map[string][]netlogger.Event {
	out := map[string][]netlogger.Event{}
	for _, ev := range events {
		if ev.Name == "rm.restart" {
			out[ev.Fields["file"]] = append(out[ev.Fields["file"]], ev)
		}
	}
	return out
}

func parseRestart(ev netlogger.Event) ([]gridftp.Extent, error) {
	spec := ev.Fields["extents"]
	if spec == "" {
		// Fully covered already; the attempt had nothing to request.
		return nil, nil
	}
	exts, err := gridftp.ParseRanges(spec)
	if err != nil {
		return nil, fmt.Errorf("unparseable restart marker %q: %v", spec, err)
	}
	var sum int64
	for _, e := range exts {
		sum += e.Len
	}
	if b, err := strconv.ParseInt(ev.Fields["bytes"], 10, 64); err == nil && b != sum {
		return exts, fmt.Errorf("restart marker bytes=%d but extents sum to %d", b, sum)
	}
	return exts, nil
}

// wellFormed checks extents are sorted by offset and non-overlapping.
func wellFormed(exts []gridftp.Extent) error {
	for i := 1; i < len(exts); i++ {
		if exts[i].Off < exts[i-1].Off {
			return fmt.Errorf("extents not sorted: %s", gridftp.FormatRanges(exts))
		}
		if exts[i-1].Off+exts[i-1].Len > exts[i].Off {
			return fmt.Errorf("extents overlap: %s", gridftp.FormatRanges(exts))
		}
	}
	return nil
}

// containedIn reports whether every byte of exts lies inside the
// coverage of within.
func containedIn(exts, within []gridftp.Extent) bool {
	if len(within) == 0 {
		return len(exts) == 0
	}
	w := append([]gridftp.Extent(nil), within...)
	sort.Slice(w, func(i, j int) bool { return w[i].Off < w[j].Off })
	for _, e := range exts {
		covered := false
		for _, c := range w {
			if e.Off >= c.Off && e.Off+e.Len <= c.Off+c.Len {
				covered = true
				break
			}
		}
		if !covered {
			return false
		}
	}
	return true
}
