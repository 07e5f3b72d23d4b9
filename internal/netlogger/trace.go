// Life-line tracing: causal spans linking a Request Manager submission to
// the replica selection, authentication, control exchanges, tape staging,
// data movement, and teardown it triggers across hosts. This is the
// NetLogger "life-line" methodology from the paper — the instrument that
// exposed the ~0.8 s per-file TCP teardown gap in Figure 8 — recast as an
// explicit span tree on the virtual clock.
//
// Trace and span IDs are small sequential integers handed out under a
// mutex. Under the deterministic simulation scheduler the same seed
// yields the same goroutine interleaving, so the IDs (and therefore the
// exported ULM/JSONL streams) are reproducible byte for byte.
package netlogger

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"esgrid/internal/vtime"
)

// Stage tags attached to spans. The analyzer attributes wall time to
// these stages; StagePriority orders them for reporting and tie-breaks.
const (
	StageQueue    = "queue"           // waiting for an RM concurrency slot
	StageSelect   = "replica-select"  // catalog lookup + NWS ranking
	StageAuth     = "auth"            // GSI handshake on a control channel
	StageControl  = "control"         // GridFTP control-channel session
	StageTape     = "stage-from-tape" // HRM staging MSS -> disk cache
	StageData     = "data"            // bytes moving on data channels
	StageTeardown = "teardown"        // QUIT + data-channel close
	StageRetry    = "retry"           // backoff between transfer attempts
)

// stagePriority ranks stages for attribution tie-breaks (higher wins when
// two staged spans of equal depth cover the same instant) and fixes the
// rendering order of breakdown tables.
var stagePriority = map[string]int{
	StageData:     8,
	StageTape:     7,
	StageAuth:     6,
	StageTeardown: 5,
	StageRetry:    4,
	StageControl:  3,
	StageSelect:   2,
	StageQueue:    1,
}

// StageOrder lists the known stages from highest to lowest priority.
var StageOrder = []string{
	StageData, StageTape, StageAuth, StageTeardown,
	StageRetry, StageControl, StageSelect, StageQueue,
}

// Tracer mints traces and records their spans. A nil *Tracer is a valid
// no-op: StartTrace returns nil and all Span methods accept nil
// receivers, so instrumented code needs no conditionals.
type Tracer struct {
	clk vtime.Clock
	log *Log // optional: span start/end events are mirrored here

	mu        sync.Mutex
	nextTrace int
	nextSpan  int
	spans     []*Span
}

// NewTracer returns a tracer stamping spans with clk. If log is non-nil
// every span start and finish is mirrored into it as a NetLogger event
// (name ".start"/".end" suffixed), which is what the ULM/JSONL exporters
// serialize.
func NewTracer(clk vtime.Clock, log *Log) *Tracer {
	return &Tracer{clk: clk, log: log}
}

// Span is one timed operation in a trace. Fields are written by the
// owning Tracer under its mutex; read them via Snapshot records.
type Span struct {
	tr     *Tracer
	trace  int
	id     int
	parent int // span ID of parent; 0 for a trace root
	name   string
	stage  string // "" for container spans carrying no stage
	host   string
	start  time.Time
	end    time.Time
	done   bool
	attrs  []string // alternating key, value
}

// SpanRecord is an immutable snapshot of a span for analysis.
type SpanRecord struct {
	TraceID int
	ID      int
	Parent  int
	Name    string
	Stage   string
	Host    string
	Start   time.Time
	End     time.Time
	Done    bool
	Attrs   []string
}

// Dur returns the span's duration (zero if unfinished).
func (r SpanRecord) Dur() time.Duration {
	if !r.Done {
		return 0
	}
	return r.End.Sub(r.Start)
}

// StartTrace mints a new trace and returns its root span.
func (t *Tracer) StartTrace(name, host string, kv ...string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextTrace++
	s := &Span{
		tr:    t,
		trace: t.nextTrace,
		name:  name,
		host:  host,
		start: t.clk.Now(),
		attrs: append([]string(nil), kv...),
	}
	t.nextSpan++
	s.id = t.nextSpan
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	t.emit(s, ".start")
	return s
}

// Child opens a sub-span under s with the given stage tag (may be "" for
// a plain container). Safe on a nil receiver.
func (s *Span) Child(stage, name string, kv ...string) *Span {
	if s == nil {
		return nil
	}
	t := s.tr
	t.mu.Lock()
	c := &Span{
		tr:     t,
		trace:  s.trace,
		parent: s.id,
		name:   name,
		stage:  stage,
		host:   s.host,
		start:  t.clk.Now(),
		attrs:  append([]string(nil), kv...),
	}
	t.nextSpan++
	c.id = t.nextSpan
	t.spans = append(t.spans, c)
	t.mu.Unlock()
	t.emit(c, ".start")
	return c
}

// Annotate appends key/value attributes to the span.
func (s *Span) Annotate(kv ...string) {
	if s == nil || len(kv) == 0 {
		return
	}
	s.tr.mu.Lock()
	s.attrs = append(s.attrs, kv...)
	s.tr.mu.Unlock()
}

// Finish closes the span at the current virtual instant. Double finishes
// are ignored.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	t := s.tr
	t.mu.Lock()
	if s.done {
		t.mu.Unlock()
		return
	}
	s.done = true
	s.end = t.clk.Now()
	t.mu.Unlock()
	t.emit(s, ".end")
}

// Context returns the wire form of the span identity, "<trace>.<span>",
// suitable for propagation as a GridFTP TRID parameter or an RPC field.
// A nil span yields "".
func (s *Span) Context() string {
	if s == nil {
		return ""
	}
	return fmt.Sprintf("%d.%d", s.trace, s.id)
}

// TraceID reports the trace the span belongs to (0 for nil).
func (s *Span) TraceID() int {
	if s == nil {
		return 0
	}
	return s.trace
}

func (t *Tracer) emit(s *Span, suffix string) {
	if t.log == nil {
		return
	}
	kv := []string{"trid", fmt.Sprintf("%d.%d", s.trace, s.id)}
	if s.stage != "" {
		kv = append(kv, "stage", s.stage)
	}
	t.mu.Lock()
	kv = append(kv, s.attrs...)
	host := s.host
	t.mu.Unlock()
	t.log.Emit(host, s.name+suffix, kv...)
}

// Snapshot returns immutable records of every span, sorted by
// (TraceID, ID) — a deterministic order under the sim scheduler.
func (t *Tracer) Snapshot() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]SpanRecord, 0, len(t.spans))
	for _, s := range t.spans {
		out = append(out, SpanRecord{
			TraceID: s.trace, ID: s.id, Parent: s.parent,
			Name: s.name, Stage: s.stage, Host: s.host,
			Start: s.start, End: s.end, Done: s.done,
			Attrs: append([]string(nil), s.attrs...),
		})
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].TraceID != out[j].TraceID {
			return out[i].TraceID < out[j].TraceID
		}
		return out[i].ID < out[j].ID
	})
	return out
}
