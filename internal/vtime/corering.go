package vtime

// The flight recorder's core ring lives here, inside the event core,
// rather than behind an interface: the Sim writes one packed record per
// schedule/fire/cancel/re-arm inline, on the baton holder, and an
// interface dispatch per event was measurable on event-dense runs (a
// 14-hour Figure 8 replay writes ~18M core records). A record write is
// a branch, a 32-byte store and a counter increment — cheap enough to
// leave on permanently. The flight package decodes snapshots into its
// richer record type for dumps and provenance chains.

// CoreKind discriminates core-ring records.
type CoreKind uint8

// Core record kinds, in the order the event core emits them.
const (
	CoreNone CoreKind = iota
	CoreSchedule
	CoreFire
	CoreCancel
	CoreRearm
)

// CoreEvent is one decoded core-ring record. At and Due are nanosecond
// offsets from Epoch on the virtual clock; Seq is the event's sequence
// number and Parent the seq of the event that was firing when this one
// was scheduled — the causal provenance edge.
type CoreEvent struct {
	At, Due     int64
	Seq, Parent uint64
	Kind        CoreKind
	Site        Site
}

// coreRec is the packed on-ring form: 32 bytes, half a cache line, so
// the steady-state store traffic of a busy run stays small. Seq is
// truncated to 40 bits (1.1e12 events — three orders of magnitude past
// the busiest observed run) to make room for the site and kind in the
// same word.
type coreRec struct {
	at, due int64
	seqKS   uint64 // seq | site<<coreSiteShift | kind<<coreKindShift
	parent  uint64
}

const (
	coreSeqBits   = 40
	coreSeqMask   = 1<<coreSeqBits - 1
	coreSiteShift = coreSeqBits
	coreKindShift = 60
)

// CoreRing is a fixed-capacity overwrite-oldest buffer of packed core
// records. Capacity is always a power of two so the record path indexes
// with a mask instead of a hardware divide. The Sim writes it inline
// once installed with SetCoreRing; readers run where any Sim method may
// (see Sim): on the baton holder, or after Run returns.
type CoreRing struct {
	recs []coreRec
	mask uint64 // len(recs) - 1
	n    uint64 // total records ever written
}

// NewCoreRing returns a ring holding the given number of records,
// rounded up to the next power of two. All memory is allocated here,
// never on the record path.
func NewCoreRing(capacity int) *CoreRing {
	p := 1
	for p < capacity {
		p <<= 1
	}
	return &CoreRing{recs: make([]coreRec, p), mask: uint64(p - 1)}
}

// Put appends one record. The Sim calls this inline;
// tests may call it directly to build synthetic rings. It never
// allocates or blocks.
func (r *CoreRing) Put(kind CoreKind, at, due int64, seq, parent uint64, site Site) {
	r.recs[r.n&r.mask] = coreRec{
		at: at, due: due, parent: parent,
		seqKS: seq&coreSeqMask | uint64(site)<<coreSiteShift | uint64(kind)<<coreKindShift,
	}
	r.n++
}

// Written returns the count of records ever written.
func (r *CoreRing) Written() uint64 { return r.n }

// Retained returns how many records the ring currently holds.
func (r *CoreRing) Retained() int {
	if r.n > uint64(len(r.recs)) {
		return len(r.recs)
	}
	return int(r.n)
}

// Snapshot decodes the retained records, oldest first. Quiescence
// contract applies (see type comment).
func (r *CoreRing) Snapshot() []CoreEvent {
	cnt := uint64(r.Retained())
	out := make([]CoreEvent, 0, cnt)
	for i := r.n - cnt; i < r.n; i++ {
		p := r.recs[i&r.mask]
		out = append(out, CoreEvent{
			At:     p.at,
			Due:    p.due,
			Seq:    p.seqKS & coreSeqMask,
			Parent: p.parent,
			Kind:   CoreKind(p.seqKS >> coreKindShift),
			Site:   Site(p.seqKS >> coreSiteShift & 0xffff),
		})
	}
	return out
}

// SetCoreRing installs (or, with nil, removes) the flight recorder's
// core ring. Install before traffic starts; the ring sees only events
// scheduled after installation.
func (s *Sim) SetCoreRing(r *CoreRing) {
	s.ring = r
}
