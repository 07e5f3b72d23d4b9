// Package flight is the harness's always-on observability core: a
// flight recorder over the vtime event core and the simnet data path,
// causal provenance chains over recorded events, and the core-profiler
// plumbing that surfaces event-core vitals through the netlogger
// metrics registry.
//
// The recorder is two fixed-size rings of packed records. The core ring
// is a vtime.CoreRing, written inline by the Sim — no interface
// dispatch on the per-event path — and captures every schedule, fire,
// cancel and re-arm with its causal parent and site tag (see
// vtime/corering.go for why it lives there). The data ring is written
// by simnet and captures connection state transitions and allocator
// passes. Both writers are the simulation's baton holder, so neither
// path takes a lock or allocates: a record write is a bounds-checked store into a
// preallocated array plus a counter increment, which is what keeps the
// recorder cheap enough to leave on permanently.
//
// Dumps are deterministic JSONL in virtual time only — wall-clock
// readings are deliberately excluded — so two equal-seed runs produce
// byte-identical dumps and a post-mortem dump aligns exactly with a
// replay of the same seed.
//
// Concurrency contract: records are written by the baton holder (see
// vtime.Sim), and Dump/Records/ChainOf take no lock either. They must
// run where a Sim method may: after Sim.Run returns, or on the baton
// holder — the goroutine that observed a failure while every other
// goroutine is parked.
package flight

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"esgrid/internal/vtime"
)

// Kind discriminates record types in the rings and dumps.
type Kind uint8

// Core-ring kinds mirror the EventTap; data-ring kinds cover the simnet
// records the tap cannot see.
const (
	KNone Kind = iota
	KSchedule
	KFire
	KCancel
	KRearm
	KConnOpen    // data: transport conn created (A = conn seq)
	KConnRetired // data: conn retired (A = conn seq)
	KConnReset   // data: conn torn down by host reset/fault (A = conn seq)
	KAllocPass   // data: allocator recompute (A = flows touched, B = passes)
)

var kindNames = [...]string{
	KNone:        "none",
	KSchedule:    "schedule",
	KFire:        "fire",
	KCancel:      "cancel",
	KRearm:       "rearm",
	KConnOpen:    "conn-open",
	KConnRetired: "conn-retired",
	KConnReset:   "conn-reset",
	KAllocPass:   "alloc-pass",
}

// KindName returns the dump spelling of k ("?" for an unknown kind).
func KindName(k Kind) string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "?"
}

func kindByName(s string) Kind {
	for k, n := range kindNames {
		if n == s {
			return Kind(k)
		}
	}
	return KNone
}

// Record is one packed flight-recorder entry. Core records fill Seq,
// Parent, Site and (for schedule/rearm) Due; data records fill Seq with
// a per-ring ordinal and carry their payload in A and B.
type Record struct {
	At     int64  // virtual ns since Epoch
	Seq    uint64 // event seq (core) / data-ring ordinal (data)
	Parent uint64 // causal parent event seq (core only)
	Due    int64  // due instant for schedule/rearm
	A, B   int64  // data payload (conn seq; flows, passes)
	Kind   Kind
	Site   vtime.Site
}

// ring is a fixed-capacity overwrite-oldest record buffer. Capacity is
// always a power of two so the record path indexes with a mask instead
// of a hardware divide — put() sits on the per-event hot path, where an
// integer division is measurable.
type ring struct {
	recs []Record
	mask uint64 // len(recs) - 1; len is a power of two
	n    uint64 // total records ever written
}

func (r *ring) put(rec Record) {
	r.recs[r.n&r.mask] = rec
	r.n++
}

// snapshot returns the retained records, oldest first.
func (r *ring) snapshot() []Record {
	cap64 := uint64(len(r.recs))
	cnt := r.n
	if cnt > cap64 {
		cnt = cap64
	}
	out := make([]Record, 0, cnt)
	for i := r.n - cnt; i < r.n; i++ {
		out = append(out, r.recs[i&r.mask])
	}
	return out
}

// Recorder is the flight recorder. Construct with New, install on the
// clock with AttachCore, and hand to simnet via Net.AttachFlight.
type Recorder struct {
	core *vtime.CoreRing
	data ring
	dseq uint64 // data-ring ordinal counter
}

// Default ring capacities: the core ring holds the last 16k core events
// (512 KB packed — small enough to stay cache-resident under the per-
// event store traffic of a busy run), several virtual seconds of a busy
// simulation and enough to walk any retry chain back through the
// timeout and fault that caused it.
const (
	DefaultCoreCap = 1 << 14
	DefaultDataCap = 1 << 13
)

// New returns a Recorder with the given ring capacities (records, not
// bytes); zero or negative capacities take the defaults, and requested
// capacities are rounded up to the next power of two so the record
// path can mask instead of divide. All ring memory is allocated here,
// never on the record path.
func New(coreCap, dataCap int) *Recorder {
	if coreCap <= 0 {
		coreCap = DefaultCoreCap
	}
	if dataCap <= 0 {
		dataCap = DefaultDataCap
	}
	return &Recorder{
		core: vtime.NewCoreRing(coreCap),
		data: newRing(dataCap),
	}
}

func newRing(capacity int) ring {
	p := 1
	for p < capacity {
		p <<= 1
	}
	return ring{recs: make([]Record, p), mask: uint64(p - 1)}
}

// AttachCore installs the recorder's core ring on the Sim: from then on
// the event core writes one packed record per schedule/fire/cancel/
// re-arm inline. Attach before traffic starts.
func (r *Recorder) AttachCore(s *vtime.Sim) {
	s.SetCoreRing(r.core)
}

// CoreRing exposes the recorder's core ring (tests build synthetic
// histories through it).
func (r *Recorder) CoreRing() *vtime.CoreRing { return r.core }

// coreKinds maps decoded vtime core-ring kinds onto dump kinds.
var coreKinds = [...]Kind{
	vtime.CoreSchedule: KSchedule,
	vtime.CoreFire:     KFire,
	vtime.CoreCancel:   KCancel,
	vtime.CoreRearm:    KRearm,
}

// --- data-path records (called by the baton holder) ---

// Conn records a connection state transition (KConnOpen/KConnRetired/
// KConnReset) for conn seq c at virtual instant at.
func (r *Recorder) Conn(kind Kind, at int64, c int64) {
	r.data.put(Record{At: at, Seq: r.dseq, A: c, Kind: kind})
	r.dseq++
}

// AllocPass records one allocator recompute touching flows flows in
// passes water-filling passes at virtual instant at.
func (r *Recorder) AllocPass(at int64, flows, passes int64) {
	r.data.put(Record{At: at, Seq: r.dseq, A: flows, B: passes, Kind: KAllocPass})
	r.dseq++
}

// Stats reports how much the rings have seen and retained.
type Stats struct {
	CoreWritten  uint64 // core records ever written
	CoreRetained int    // core records currently in the ring
	DataWritten  uint64
	DataRetained int
}

// Stats returns the recorder's own occupancy counters.
func (r *Recorder) Stats() Stats {
	dr := int(r.data.n)
	if dr > len(r.data.recs) {
		dr = len(r.data.recs)
	}
	return Stats{
		CoreWritten:  r.core.Written(),
		CoreRetained: r.core.Retained(),
		DataWritten:  r.data.n,
		DataRetained: dr,
	}
}

// Records returns the retained records of both rings merged into one
// deterministic stream: ordered by virtual instant, core records before
// data records at the same instant, ring order within each. Quiescence
// contract applies (see package comment).
func (r *Recorder) Records() []Record {
	events := r.core.Snapshot()
	core := make([]Record, len(events))
	for i, e := range events {
		core[i] = Record{At: e.At, Due: e.Due, Seq: e.Seq, Parent: e.Parent,
			Kind: coreKinds[e.Kind], Site: e.Site}
	}
	data := r.data.snapshot()
	out := make([]Record, 0, len(core)+len(data))
	i, j := 0, 0
	for i < len(core) && j < len(data) {
		if core[i].At <= data[j].At { // core first on ties
			out = append(out, core[i])
			i++
		} else {
			out = append(out, data[j])
			j++
		}
	}
	out = append(out, core[i:]...)
	out = append(out, data[j:]...)
	return out
}

// appendJSON renders rec as one JSONL line (no trailing newline). Keys
// appear in a fixed order and only virtual-time fields are emitted, so
// output is deterministic across equal-seed runs.
func appendJSON(b []byte, rec Record) []byte {
	b = append(b, `{"t":`...)
	b = strconv.AppendInt(b, rec.At, 10)
	b = append(b, `,"kind":"`...)
	b = append(b, KindName(rec.Kind)...)
	b = append(b, `","seq":`...)
	b = strconv.AppendUint(b, rec.Seq, 10)
	switch rec.Kind {
	case KSchedule, KFire, KCancel, KRearm:
		b = append(b, `,"parent":`...)
		b = strconv.AppendUint(b, rec.Parent, 10)
		b = append(b, `,"site":"`...)
		b = append(b, vtime.SiteName(rec.Site)...)
		b = append(b, '"')
		if rec.Kind == KSchedule || rec.Kind == KRearm {
			b = append(b, `,"due":`...)
			b = strconv.AppendInt(b, rec.Due, 10)
		}
	case KConnOpen, KConnRetired, KConnReset:
		b = append(b, `,"conn":`...)
		b = strconv.AppendInt(b, rec.A, 10)
	case KAllocPass:
		b = append(b, `,"flows":`...)
		b = strconv.AppendInt(b, rec.A, 10)
		b = append(b, `,"passes":`...)
		b = strconv.AppendInt(b, rec.B, 10)
	}
	b = append(b, '}')
	return b
}

// WriteDump writes the merged record stream to w as deterministic
// JSONL, one record per line, oldest first.
func (r *Recorder) WriteDump(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for _, rec := range r.Records() {
		line = appendJSON(line[:0], rec)
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Dump returns the JSONL dump as a byte slice.
func (r *Recorder) Dump() []byte {
	var buf bytes.Buffer
	_ = r.WriteDump(&buf) // bytes.Buffer writes cannot fail
	return buf.Bytes()
}

// DumpToFile writes the dump to path (creating parent directories) and
// returns the number of records written.
func (r *Recorder) DumpToFile(path string) (int, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	if err := r.WriteDump(f); err != nil {
		return 0, err
	}
	st := r.Stats()
	return st.CoreRetained + st.DataRetained, f.Close()
}

// dumpLine is one dump line as encoding/json sees it. The pointer fields
// tell a key the line lacks from one written as zero.
type dumpLine struct {
	T      *int64  `json:"t"`
	Kind   string  `json:"kind"`
	Seq    *uint64 `json:"seq"`
	Parent *uint64 `json:"parent"`
	Site   *string `json:"site"`
	Due    *int64  `json:"due"`
	Conn   *int64  `json:"conn"`
	Flows  *int64  `json:"flows"`
	Passes *int64  `json:"passes"`
}

// ParseDump parses a JSONL flight dump back into records. Blank lines
// and objects whose kind is not a record kind (NetLogger or telemetry
// lines sharing the stream) are skipped. A line that is not a JSON
// object, or a record missing a key its kind writes, is an error.
func ParseDump(rd io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var out []Record
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		rec, ok, err := decodeLine(line)
		if err != nil {
			return nil, fmt.Errorf("flight: dump line %d: %v", lineNo, err)
		}
		if ok {
			out = append(out, rec)
		}
	}
	return out, sc.Err()
}

func decodeLine(line []byte) (rec Record, ok bool, err error) {
	if line[0] != '{' {
		return rec, false, errors.New("not an object")
	}
	var d dumpLine
	err = json.Unmarshal(line, &d)
	// A foreign object may hold its own keys with other types: only a
	// syntax error condemns a line before its kind is known.
	var typeErr *json.UnmarshalTypeError
	if err != nil && !errors.As(err, &typeErr) {
		return rec, false, err
	}
	if rec.Kind = kindByName(d.Kind); rec.Kind == KNone {
		return rec, false, nil
	}
	if err != nil {
		return rec, false, err
	}
	rec.At = need(d.T, "t", &err)
	rec.Seq = need(d.Seq, "seq", &err)
	site := "untagged"
	switch rec.Kind {
	case KSchedule, KFire, KCancel, KRearm:
		rec.Parent = need(d.Parent, "parent", &err)
		site = need(d.Site, "site", &err)
		if rec.Kind == KSchedule || rec.Kind == KRearm {
			rec.Due = need(d.Due, "due", &err)
		}
	case KConnOpen, KConnRetired, KConnReset:
		rec.A = need(d.Conn, "conn", &err)
	case KAllocPass:
		rec.A = need(d.Flows, "flows", &err)
		rec.B = need(d.Passes, "passes", &err)
	}
	if err != nil {
		return rec, false, err
	}
	rec.Site = vtime.RegisterSite(site)
	return rec, true, nil
}

// need returns *p, or the zero value after noting in *err (unless it
// already holds an error) that the line lacks key.
func need[T any](p *T, key string, err *error) T {
	if p == nil {
		if *err == nil {
			*err = fmt.Errorf("missing %q", key)
		}
		var zero T
		return zero
	}
	return *p
}

// ChainOf walks the causal provenance chain that leads to event seq,
// using the given record stream (from Records or ParseDump): the fire
// (or schedule, if it never fired in the retained window) of seq, its
// parent's, and so on until the chain leaves the window or reaches an
// event with no parent. Records are returned root-cause first. A seq
// not present in recs yields nil.
func ChainOf(recs []Record, seq uint64) []Record {
	// Index the best record per event: a fire beats the schedule for the
	// same seq (it carries the actual delivery instant).
	byName := make(map[uint64]Record, len(recs))
	for _, rec := range recs {
		switch rec.Kind {
		case KFire:
			byName[rec.Seq] = rec
		case KSchedule, KRearm, KCancel:
			if _, have := byName[rec.Seq]; !have {
				byName[rec.Seq] = rec
			}
		}
	}
	var chain []Record
	cur, have := byName[seq]
	if !have {
		return nil
	}
	visited := make(map[uint64]bool, 16)
	for {
		chain = append(chain, cur)
		if cur.Parent == 0 || visited[cur.Seq] {
			break
		}
		visited[cur.Seq] = true
		next, have := byName[cur.Parent]
		if !have {
			break // chain left the retained window
		}
		cur = next
	}
	// Reverse: root cause first.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain
}

// FormatChain pretty-prints a provenance chain (as returned by ChainOf)
// one hop per line, root cause first, with virtual timestamps and site
// names:
//
//	t=2.000000s  seq=812   fire      simnet.loss
//	  └─ t=2.000000s  seq=815   schedule  rm.retry-backoff  due=+1.5s
func FormatChain(chain []Record) string {
	// Indentation tracks depth but caps at a few levels: retry chains
	// routinely run tens of hops (per-RTT window events chain into each
	// other), and an unbounded staircase pushes the interesting columns
	// off screen.
	const maxIndent = 6
	var b bytes.Buffer
	for i, rec := range chain {
		if i > 0 {
			ind := i - 1
			if ind > maxIndent {
				ind = maxIndent
			}
			for j := 0; j < ind; j++ {
				b.WriteString("   ")
			}
			b.WriteString("  └─ ")
		}
		fmt.Fprintf(&b, "t=%.6fs  seq=%-8d %-9s %s",
			float64(rec.At)/1e9, rec.Seq, KindName(rec.Kind), vtime.SiteName(rec.Site))
		if rec.Kind == KSchedule || rec.Kind == KRearm {
			fmt.Fprintf(&b, "  due=+%.6fs", float64(rec.Due-rec.At)/1e9)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// LastBySite returns the most recent retained fire record whose site
// name equals name, or false if none is retained — the usual entry
// point for "walk back the latest retry".
func LastBySite(recs []Record, name string) (Record, bool) {
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].Kind == KFire && vtime.SiteName(recs[i].Site) == name {
			return recs[i], true
		}
	}
	return Record{}, false
}

// SiteCounts aggregates the record stream per site: how many schedules,
// fires and cancels each site produced in the retained window. Rows are
// sorted by fire count descending, then name.
type SiteCount struct {
	Site      string
	Schedules int
	Fires     int
	Cancels   int
	Rearms    int
}

// SiteCounts aggregates recs (see SiteCount).
func SiteCounts(recs []Record) []SiteCount {
	idx := map[string]*SiteCount{}
	get := func(s vtime.Site) *SiteCount {
		name := vtime.SiteName(s)
		c := idx[name]
		if c == nil {
			c = &SiteCount{Site: name}
			idx[name] = c
		}
		return c
	}
	for _, rec := range recs {
		switch rec.Kind {
		case KSchedule:
			get(rec.Site).Schedules++
		case KFire:
			get(rec.Site).Fires++
		case KCancel:
			get(rec.Site).Cancels++
		case KRearm:
			get(rec.Site).Rearms++
		}
	}
	out := make([]SiteCount, 0, len(idx))
	//esglint:unordered rows are sorted deterministically below
	for _, c := range idx {
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Fires != out[j].Fires {
			return out[i].Fires > out[j].Fires
		}
		return out[i].Site < out[j].Site
	})
	return out
}
