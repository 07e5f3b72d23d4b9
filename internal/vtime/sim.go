package vtime

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Epoch is the instant at which every simulated clock starts: the first
// day of the SC'00 exhibition, during which the paper's experiments ran.
var Epoch = time.Date(2000, time.November, 6, 8, 0, 0, 0, time.UTC)

// NextTick returns the first Epoch-aligned multiple of tick strictly
// after t. Both the monitor plane and the telemetry aggregation tree
// sample on this grid: aligning ticks to the Epoch (rather than to
// whenever a component happened to start) makes tick instants a
// property of the timeline, so live, replayed, and re-foliated runs
// agree sample for sample.
func NextTick(t time.Time, tick time.Duration) time.Time {
	d := t.Sub(Epoch)
	steps := d / tick
	b := Epoch.Add(steps * tick)
	for !b.After(t) {
		b = b.Add(tick)
	}
	return b
}

// Sim is a deterministic discrete-event simulated clock.
//
// Scheduling model: goroutines started with Go (or the function passed to
// Run) are "managed", and exactly one of them runs at a time: it holds
// the baton until it parks (Sleep, Cond.Wait) or exits, and then the Sim
// hands the baton on. Readying a goroutine — Go, Signal, Broadcast, a
// wakeup or timeout event — only enqueues it on the Sim's run queue; the
// next holder is the entry readied most recently, else the oldest one,
// which is the order a one-P Go runtime runs readied goroutines in. Only
// when the queue is empty does the parking goroutine fire the earliest
// pending event(s), until one readies someone. Time therefore advances
// only at quiescence, every run follows one schedule on any number of
// cores, and hours of virtual time pass in microseconds of real time.
//
// The baton is also the Sim's only synchronisation: it holds no lock.
// Every method must be called by the baton holder (a managed goroutine,
// or an event callback, which runs on one), before Run starts, or after
// it returns. Each hand-off is a channel send or a go statement, which
// orders everything the last holder did before everything the next one
// does; Run returns only after every managed goroutine's last step. State
// the baton holder alone touches — here and in simnet — needs no lock
// either.
//
// Event core: pending events live in a slot arena indexed by a 4-ary
// int32 min-heap ordered on (due time, sequence); each slot carries its
// heap position, so cancels and re-keys touch only the affected path.
// Slots are recycled through a freelist the moment an event fires or is
// cancelled, so timer-heavy workloads (AIMD window growth, loss sampling,
// per-segment completions) run at zero steady-state allocation and a
// cancel storm cannot grow the queue. Zero-delay events skip the heap and
// ride a FIFO for the current instant. Sleep wakeups reuse a pooled
// waiter (a cached channel) instead of allocating a channel and a
// closure per call.
//
// An event is a waiter's wakeup or a Handler fired with a kind byte.
// Recurring events of long-lived objects (a flow's growth, loss,
// completion, linger and delivery; a cond waiter's timeout) use
// ScheduleHandler and RescheduleHandler, which bind no callback. One-shot
// callbacks (experiment timelines, faults, meters) use Schedule,
// ScheduleSite, AfterFunc or AfterFuncTagged, which store the func as a
// Handler without allocating. Callbacks run at their due time, on the
// goroutine handing the baton on; they must not block.
type Sim struct {
	now     time.Duration // offset from Epoch
	slots   []eventSlot   // arena of event slots
	free    []int32       // recycled slot indices (LIFO)
	heap    []heapEnt     // min-heap of (at, seq, slot) by (at, seq)
	immQ    []int32       // FIFO of zero-delay slots due at the current instant
	immHead int           // index of the first live immQ entry
	immLive int           // immQ entries not yet cancelled
	seq     uint64
	// The run queue: next is the entry readied most recently, runq[runqHead:]
	// the others in the order they were readied — a one-P Go runtime's
	// runnext slot and local run queue. self is the waiter of a goroutine
	// firing events on its way to park; an event that readies it does not
	// enqueue it, and it keeps the baton, as a one-P runtime's goroutine
	// whose wakeup is already buffered does.
	next     runEnt
	runq     []runEnt
	runqHead int
	self     *waiter
	// made lists every waiter the Sim created, in creation order:
	// teardown unwinds the goroutines parked on them in that order, one at
	// a time, each handing the baton back on joined as it exits.
	made     []*waiter
	joined   chan struct{}
	waitFree []*waiter
	condSlab []chanCond
	// instantHook, when armed, runs once the current instant's events are
	// exhausted — just before virtual time would advance. It replaces a
	// zero-delay event on the highest-frequency path in the tree (the
	// network allocator's flush): arming is a flag write instead of a
	// schedule/pop cycle, and the hook's position (after every event due
	// at this instant) is exactly where a zero-delay event would land,
	// since only other zero-delay schedules can carry a later sequence at
	// the same instant and the flush dedups itself.
	instantHook func()
	hookArmed   bool
	// firing / rearm implement RearmFiring: while an event callback runs,
	// its slot stays reserved and these fields pass a re-arm request back
	// to the advance loop.
	firingID   EventID
	rearmDelay time.Duration
	stopped    bool
	rng        *rand.Rand

	// Observability (always on; see site.go and internal/flight).
	// lastFired is the seq of the event most recently delivered at the
	// current instant: the causal parent stamped onto events scheduled
	// while it (or the goroutines it woke) run. ring, when set, records
	// every schedule/fire/cancel/re-arm (see corering.go). The
	// remaining fields are the core profiler's counters and high-water
	// marks, plus the sampled wall-time attribution arrays (nil when
	// disabled).
	lastFired  uint64
	ring       *CoreRing
	heapMax    int
	immMax     int
	nSched     uint64
	nFired     uint64
	nCancelled uint64
	nRearmed   uint64
	wallNs     []int64 // per-site sampled wall ns; nil = profiling off
}

// eventSlot is one pending (or recycled) event. A slot is live while it
// sits in the heap (heapIdx >= 0) or the immediate queue; state says
// where. gen increments on every recycle, so a stale EventID can never
// cancel the slot's next tenant.
type eventSlot struct {
	at      time.Duration
	seq     uint64
	parent  uint64 // seq of the event firing when this one was scheduled
	gen     uint32
	heapIdx int32 // position in heap, or -1
	state   int32
	site    Site  // scheduling call site (provenance label)
	kind    uint8 // passed to h.Fire
	h       Handler
	wake    *waiter // goroutine to ready; nil for handler events
}

// Handler receives typed events: the receiver and a kind byte are the
// whole event, so a long-lived object with several kinds of event (a
// flow, a cond waiter) schedules them all without binding a callback per
// kind. Fire runs like any event callback and must not block.
type Handler interface{ Fire(kind uint8) }

// funcHandler carries a func() callback in a Handler slot. A func value
// is pointer-shaped, so the conversion does not allocate.
type funcHandler func()

func (fn funcHandler) Fire(uint8) { fn() }

// eventSlot states.
const (
	notQueued    = -1 // free, fired, or cancelled-and-recycled
	immQueued    = -2 // pending in the immediate (zero-delay) FIFO
	immCancelled = -3 // cancelled in place; recycled when its FIFO turn comes
	inHeap       = -4 // pending in the event heap
)

// heapEnt is one heap entry: the ordering key packed next to the slot
// index, so sift compares read the heap's own cache lines instead of
// chasing pointers into the slot arena. The slot's heapIdx back-pointer
// makes cancels and in-place re-keys O(depth) with no lazy-deletion
// residue.
type heapEnt struct {
	at   time.Duration
	seq  uint64
	slot int32
}

func entLess(a, b heapEnt) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// EventID names one scheduled event for cancellation. The zero EventID is
// "no event".
type EventID uint64

func makeEventID(slot int32, gen uint32) EventID {
	return EventID(uint64(gen)<<32 | uint64(slot+1))
}

func splitEventID(id EventID) (slot int32, gen uint32) {
	return int32(uint32(id)) - 1, uint32(id >> 32)
}

// runEnt is one run queue entry: a parked goroutine to wake, or a Go
// whose goroutine starts when the baton reaches it.
type runEnt struct {
	w  *waiter
	fn func()
}

// NewSim returns a simulated clock whose random source is seeded with
// seed, so runs are reproducible.
func NewSim(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed)), joined: make(chan struct{})}
}

// simStopped is the panic value used to unwind managed goroutines that are
// still parked when Run returns; Go's wrapper recovers it.
type stoppedPanic struct{}

// Now implements Clock.
func (s *Sim) Now() time.Time {
	return Epoch.Add(s.now)
}

// Elapsed returns the virtual time elapsed since the simulation started.
func (s *Sim) Elapsed() time.Duration {
	return s.now
}

// Rand returns a deterministic pseudo-random float64 in [0,1).
func (s *Sim) Rand() float64 {
	return s.rng.Float64()
}

// RandExp returns an exponentially distributed value with the given mean.
func (s *Sim) RandExp(mean float64) float64 {
	return s.rng.ExpFloat64() * mean
}

// --- slot arena + heap ---

// allocSlotLocked pops a recycled slot or grows the arena.
func (s *Sim) allocSlotLocked() int32 {
	if n := len(s.free); n > 0 {
		i := s.free[n-1]
		s.free = s.free[:n-1]
		return i
	}
	s.slots = append(s.slots, eventSlot{state: notQueued, heapIdx: -1})
	return int32(len(s.slots) - 1)
}

// freeSlotLocked recycles a fired or cancelled slot.
func (s *Sim) freeSlotLocked(i int32) {
	sl := &s.slots[i]
	sl.h = nil
	sl.wake = nil
	sl.state = notQueued
	sl.heapIdx = -1
	sl.gen++
	s.free = append(s.free, i)
}

// The heap is 4-ary: half the depth of a binary heap, so pops — the
// dominant operation in an event loop — do half the level moves, at the
// cost of more (cheap, in-cache) compares per level. Pop order is
// arity-independent: (at, seq) is a total order. Sifts hole-shift the
// moving entry instead of swapping pairwise, writing each displaced
// entry's heapIdx once.
func (s *Sim) siftUpLocked(i int) {
	h := s.heap
	e := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !entLess(e, h[p]) {
			break
		}
		h[i] = h[p]
		s.slots[h[p].slot].heapIdx = int32(i)
		i = p
	}
	h[i] = e
	s.slots[e.slot].heapIdx = int32(i)
}

func (s *Sim) siftDownLocked(i int) {
	h := s.heap
	n := len(h)
	e := h[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for c++; c < end; c++ {
			if entLess(h[c], h[m]) {
				m = c
			}
		}
		if !entLess(h[m], e) {
			break
		}
		h[i] = h[m]
		s.slots[h[m].slot].heapIdx = int32(i)
		i = m
	}
	h[i] = e
	s.slots[e.slot].heapIdx = int32(i)
}

// pushEventLocked enters a filled slot into the heap.
func (s *Sim) pushEventLocked(i int32) {
	sl := &s.slots[i]
	sl.state = inHeap
	sl.heapIdx = int32(len(s.heap))
	s.heap = append(s.heap, heapEnt{at: sl.at, seq: sl.seq, slot: i})
	if len(s.heap) > s.heapMax {
		s.heapMax = len(s.heap)
	}
	s.siftUpLocked(len(s.heap) - 1)
}

// removeEventLocked detaches the slot at heap position pos, restoring the
// heap property around the entry moved into its place.
func (s *Sim) removeEventLocked(pos int) {
	last := len(s.heap) - 1
	s.slots[s.heap[pos].slot].heapIdx = -1
	if pos != last {
		s.heap[pos] = s.heap[last]
		s.heap = s.heap[:last]
		s.slots[s.heap[pos].slot].heapIdx = int32(pos)
		s.siftDownLocked(pos)
		s.siftUpLocked(pos)
	} else {
		s.heap = s.heap[:last]
	}
}

// popEventLocked removes and returns the earliest heap slot index (-1 if
// none).
func (s *Sim) popEventLocked() int32 {
	if len(s.heap) == 0 {
		return -1
	}
	i := s.heap[0].slot
	s.removeEventLocked(0)
	s.slots[i].state = notQueued
	return i
}

// scheduleLocked enters an event (handler or waiter wakeup) due after d
// and returns its id. Zero-delay events — due at the current instant, a
// constant stream on the allocator flush path — skip the heap entirely
// and ride a FIFO: same (at, seq) firing order, O(1) instead of two
// O(log n) sifts per event.
func (s *Sim) scheduleLocked(d time.Duration, h Handler, kind uint8, wake *waiter, site Site) EventID {
	i := s.allocSlotLocked()
	sl := &s.slots[i]
	s.stampLocked(sl, site, h, kind)
	sl.wake = wake
	if d <= 0 {
		sl.at = s.now
		sl.state = immQueued
		s.immQ = append(s.immQ, i)
		s.immLive++
		if s.immLive > s.immMax {
			s.immMax = s.immLive
		}
	} else {
		sl.at = s.now + d
		s.pushEventLocked(i)
	}
	if r := s.ring; r != nil {
		r.Put(CoreSchedule, int64(s.now), int64(sl.at), sl.seq, sl.parent, site)
	}
	return makeEventID(i, sl.gen)
}

// stampLocked gives sl its event — what it fires and its site — with a
// fresh sequence number and, as causal parent, the event now firing.
func (s *Sim) stampLocked(sl *eventSlot, site Site, h Handler, kind uint8) {
	sl.seq, sl.parent, sl.site, sl.h, sl.kind = s.seq, s.lastFired, site, h, kind
	s.seq++
	s.nSched++
}

// popNextLocked removes and returns the globally earliest pending slot by
// (at, seq), merging the immediate FIFO with the heap; -1 if none.
// Immediate entries are due at the instant they were scheduled, so the
// FIFO is drained (in seq order) before virtual time can pass it — the
// only contest is against heap events due at the same instant with an
// earlier sequence number.
func (s *Sim) popNextLocked() int32 {
	// Reap cancelled-in-place immediate entries.
	for s.immHead < len(s.immQ) {
		i := s.immQ[s.immHead]
		if s.slots[i].state != immCancelled {
			break
		}
		s.immHead++
		s.freeSlotLocked(i)
	}
	if s.immHead == len(s.immQ) {
		s.immQ = s.immQ[:0]
		s.immHead = 0
		return s.popEventLocked()
	}
	im := s.immQ[s.immHead]
	if len(s.heap) > 0 {
		sl := &s.slots[im]
		if entLess(s.heap[0], heapEnt{at: sl.at, seq: sl.seq, slot: im}) {
			return s.popEventLocked()
		}
	}
	s.immHead++
	s.immLive--
	s.slots[im].state = notQueued
	return im
}

// Schedule arms fn to run after d on the clock's event context, exactly
// like AfterFunc, but hands back a plain EventID instead of a Timer.
func (s *Sim) Schedule(d time.Duration, fn func()) EventID {
	return s.ScheduleHandler(0, d, funcHandler(fn), 0)
}

// ScheduleSite is Schedule with a provenance site tag (see RegisterSite):
// the event carries the tag through the flight recorder and profiler, so
// a fired timer can be attributed to the subsystem that armed it.
func (s *Sim) ScheduleSite(site Site, d time.Duration, fn func()) EventID {
	return s.ScheduleHandler(site, d, funcHandler(fn), 0)
}

// ScheduleHandler arms h.Fire(kind) to run after d, tagged with site.
func (s *Sim) ScheduleHandler(site Site, d time.Duration, h Handler, kind uint8) EventID {
	return s.scheduleLocked(d, h, kind, nil, site)
}

// RescheduleHandler moves event id to fire h.Fire(kind) after d, tagged
// with site, and returns its id. A pending heap event is re-keyed in
// place — one sift instead of a removal and a push — and
// takes a fresh seq and causal parent, as a cancel-and-schedule pair
// would; any other id (zero, stale, fired, zero-delay) is cancelled if
// pending and the event armed afresh, as by ScheduleHandler.
func (s *Sim) RescheduleHandler(site Site, id EventID, d time.Duration, h Handler, kind uint8) EventID {
	slot, gen := splitEventID(id)
	if d <= 0 || slot < 0 || int(slot) >= len(s.slots) || s.slots[slot].gen != gen || s.slots[slot].state != inHeap {
		s.cancelLocked(id)
		return s.scheduleLocked(d, h, kind, nil, site)
	}
	sl := &s.slots[slot]
	sl.at = s.now + d
	s.stampLocked(sl, site, h, kind)
	pos := int(sl.heapIdx)
	s.heap[pos].at = sl.at
	s.heap[pos].seq = sl.seq
	s.siftDownLocked(pos)
	s.siftUpLocked(pos)
	if r := s.ring; r != nil {
		r.Put(CoreSchedule, int64(s.now), int64(sl.at), sl.seq, sl.parent, site)
	}
	return id
}

// RearmFiring re-arms the event whose callback is currently executing to
// fire again after d with the same handler and kind, and returns its id —
// unchanged, since the slot is never recycled. It must be called only
// from within that event's own callback; periodic events (per-RTT window
// growth of a window-limited flow, meter samples) re-arm themselves this
// way with a plain field write instead of a full allocate/push cycle
// per period. The push happens when the callback returns, so the
// re-armed event's sequence number follows any the callback scheduled
// itself; ordering is unaffected at distinct instants, which d > 0
// guarantees here. It panics if d <= 0: the slot would be freed when the
// callback returns while the caller holds an id that looks live.
func (s *Sim) RearmFiring(d time.Duration) EventID {
	if d <= 0 {
		panic(fmt.Sprintf("vtime: RearmFiring with non-positive delay %v", d))
	}
	s.rearmDelay = d
	return s.firingID
}

// Cancel revokes a pending event. It reports whether the call prevented
// the event from firing; a zero, stale, or already-fired id is a no-op.
// The event's slot is recycled immediately, so cancelled timers do not
// linger in the queue.
func (s *Sim) Cancel(id EventID) bool {
	if id == 0 {
		return false
	}
	return s.cancelLocked(id)
}

func (s *Sim) cancelLocked(id EventID) bool {
	slot, gen := splitEventID(id)
	if slot < 0 || int(slot) >= len(s.slots) {
		return false
	}
	sl := &s.slots[slot]
	if sl.gen != gen {
		return false // already fired and slot re-used
	}
	switch sl.state {
	case inHeap:
		if r := s.ring; r != nil {
			r.Put(CoreCancel, int64(s.now), 0, sl.seq, sl.parent, sl.site)
		}
		s.nCancelled++
		s.removeEventLocked(int(sl.heapIdx))
		s.freeSlotLocked(slot)
		return true
	case immQueued:
		// Mid-FIFO removal would be O(n); mark the entry dead in place and
		// let popNextLocked recycle the slot when its turn comes. Rare:
		// zero-delay events nearly always fire.
		if r := s.ring; r != nil {
			r.Put(CoreCancel, int64(s.now), 0, sl.seq, sl.parent, sl.site)
		}
		s.nCancelled++
		sl.state = immCancelled
		sl.h = nil
		sl.wake = nil
		s.immLive--
		return true
	}
	return false // already fired or cancelled
}

// PendingEvents reports the number of events currently queued — cancelled
// timers are recycled (eagerly in the heap, at their FIFO turn in the
// immediate queue) and never count.
func (s *Sim) PendingEvents() int {
	return len(s.heap) + s.immLive
}

// AfterFunc implements Clock.
func (s *Sim) AfterFunc(d time.Duration, fn func()) Timer {
	// scheduleLocked, not ScheduleSite: ScheduleSite inlines whole, and
	// AfterFunc must stay small enough to inline, or each caller that
	// drops the Timer heap-allocates it.
	return &simTimer{s: s, id: s.scheduleLocked(d, funcHandler(fn), 0, nil, siteAfterFunc)}
}

type simTimer struct {
	s  *Sim
	id EventID
}

// Stop cancels the pending event and recycles its queue slot.
func (t *simTimer) Stop() bool { return t.s.Cancel(t.id) }

// SetInstantHook registers fn to run whenever the hook is armed and the
// current instant's pending events are exhausted (immediately before
// virtual time advances past the instant). One hook per clock; fn runs
// like an event callback and must not block. It may arm the hook again
// for the same instant.
func (s *Sim) SetInstantHook(fn func()) {
	s.instantHook = fn
}

// ArmInstantHook schedules the registered hook to fire at the end of the
// current instant. Arming an already-armed hook is a no-op. On the
// allocator flush path it runs once per dirty event, so it is one flag
// write.
func (s *Sim) ArmInstantHook() {
	if s.instantHook != nil {
		s.hookArmed = true
	}
}

// nextDueNowLocked reports whether some pending event is due at the
// current instant.
func (s *Sim) nextDueNowLocked() bool {
	if s.immLive > 0 {
		return true
	}
	return len(s.heap) > 0 && s.heap[0].at <= s.now
}

// condSlabSize is how many conds Sim.NewCond carves from one allocation.
const condSlabSize = 64

// NewCond implements Clock. The cond is carved from the Sim's slab, so a
// run that builds a cond per connection pays one allocation per
// condSlabSize conds. l may be nil: state the baton holder alone touches
// needs no locker, and Wait then unlocks and relocks nothing.
func (s *Sim) NewCond(l sync.Locker) Cond {
	if len(s.condSlab) == 0 {
		s.condSlab = make([]chanCond, condSlabSize)
	}
	c := &s.condSlab[0]
	s.condSlab = s.condSlab[1:]
	c.sim, c.l = s, l
	c.waiters = c.inl[:0]
	return c
}

// getWaiter pops a retired waiter, or builds one, and binds it to c
// (nil for a Sleep). Its channel is empty: a waiter is retired only
// after its one wakeup was received.
func (s *Sim) getWaiter(c *chanCond) *waiter {
	var w *waiter
	if n := len(s.waitFree); n > 0 {
		w = s.waitFree[n-1]
		s.waitFree = s.waitFree[:n-1]
	} else {
		w = &waiter{ch: make(chan struct{}, 1)}
		s.made = append(s.made, w)
	}
	w.c, w.fired, w.timedOut = c, false, false
	return w
}

// putWaiter retires a waiter. No timeout can still reach it: a waiter
// the baton resumed cancels its timeout before any event can fire.
func (s *Sim) putWaiter(w *waiter) {
	w.c = nil
	s.waitFree = append(s.waitFree, w)
}

// Go implements Clock: fn runs as a managed goroutine once the baton
// reaches it.
func (s *Sim) Go(fn func()) {
	s.enqueueLocked(runEnt{fn: fn})
}

// Run executes main as a managed goroutine on the caller's stack, holding
// the baton, and returns when main returns. Goroutines still parked (or
// queued) then are unwound via a recovered panic before Run returns, one
// at a time in their waiters' creation order, so the simulation's final
// state — flight rings, stats, logs — is settled and deterministic for
// whatever the caller reads next. Go calls the baton never reached are
// dropped.
func (s *Sim) Run(main func()) {
	defer func() {
		s.stopped = true
		s.next, s.runq, s.runqHead = runEnt{}, nil, 0
		if w := s.self; w != nil {
			w.parked = false // main panicked out of an event it fired
		}
		for _, w := range s.made {
			if w.parked {
				close(w.ch)
				<-s.joined
			}
		}
	}()
	main()
}

// exit retires a managed goroutine and passes the baton on: at teardown,
// back to Run.
func (s *Sim) exit() {
	if s.stopped {
		s.joined <- struct{}{}
		return
	}
	s.handOffLocked(nil)
}

// Sleep implements Clock. The caller must be a managed goroutine. The
// wakeup reuses a pooled waiter and a wake-typed event slot, so a
// steady-state Sleep performs no heap allocation.
func (s *Sim) Sleep(d time.Duration) { s.SleepSite(siteSleep, d) }

// SleepSite is Sleep with a provenance site tag on the wakeup event, so
// semantically distinct delays (retry backoff, staging wait, probe
// period) stay distinguishable in flight dumps and profiles.
func (s *Sim) SleepSite(site Site, d time.Duration) {
	if d <= 0 {
		return
	}
	w := s.getWaiter(nil)
	s.park(w, site, d)
	s.putWaiter(w)
}

// park suspends the calling managed goroutine — with a wakeup due after
// d, if d > 0 — until w is readied and the baton reaches it. A closed
// w.ch means Run has returned: the goroutine unwinds.
func (s *Sim) park(w *waiter, site Site, d time.Duration) {
	if s.stopped {
		panic(stoppedPanic{})
	}
	if d > 0 {
		s.scheduleLocked(d, nil, 0, w, site)
	}
	w.parked = true
	s.handOffLocked(w)
	// The baton is gone: from here until w.ch delivers it back, this
	// goroutine touches nothing of the Sim's.
	if _, ok := <-w.ch; !ok {
		panic(stoppedPanic{})
	}
}

// unpark readies the goroutine parked on w. Safe to call from event
// callbacks and managed goroutines alike; dropped after teardown, when
// code unwinding past Run may still signal.
func (s *Sim) unpark(w *waiter) {
	s.enqueueLocked(runEnt{w: w})
}

// enqueueLocked readies e: it takes the next slot, and the entry there
// joins the queue's tail.
func (s *Sim) enqueueLocked(e runEnt) {
	switch {
	case s.stopped:
	case e.w != nil && e.w == s.self:
		e.w.parked = false
	default:
		if s.next.w != nil || s.next.fn != nil {
			s.runq = append(s.runq, s.next)
		}
		s.next = e
	}
}

// handOffLocked passes the baton from the calling goroutine — parking on
// self, or exiting when self is nil — to the next run queue entry. While
// the queue is empty it fires pending events on this goroutine, the
// instant hook first at the end of each instant. The fire loop is inline:
// handlers run on the parking goroutine's stack, and a frame more under
// them made more of those goroutines grow their stacks. The send on a
// waiter's channel (or the go statement) is the hand-off itself: it
// orders everything this goroutine did before everything the next holder
// does, so the caller must touch no Sim state once this returns.
func (s *Sim) handOffLocked(self *waiter) {
	s.self = self
	for {
		var e runEnt
		switch {
		case self != nil && !self.parked:
			e.w = self // an event it fired readied it: it keeps the baton
		case s.next.w != nil || s.next.fn != nil:
			e, s.next = s.next, runEnt{}
		case s.runqHead < len(s.runq):
			e = s.runq[s.runqHead]
			s.runq[s.runqHead] = runEnt{}
			if s.runqHead++; s.runqHead == len(s.runq) {
				s.runq, s.runqHead = s.runq[:0], 0
			}
		}
		if e.w != nil {
			s.self, e.w.parked = nil, false
			e.w.ch <- struct{}{} // buffered; never blocks
			return
		}
		if e.fn != nil {
			s.self = nil
			go s.launch(e.fn)
			return
		}
		if s.hookArmed && !s.nextDueNowLocked() {
			s.hookArmed = false
			s.instantHook()
			continue
		}
		i := s.popNextLocked()
		if i < 0 {
			panic("vtime: deadlock: goroutines parked with no pending events")
		}
		sl := &s.slots[i]
		if sl.at > s.now {
			s.now = sl.at
		}
		s.nFired++
		s.lastFired = sl.seq
		if r := s.ring; r != nil {
			r.Put(CoreFire, int64(s.now), 0, sl.seq, sl.parent, sl.site)
		}
		if w := sl.wake; w != nil {
			s.freeSlotLocked(i)
			s.enqueueLocked(runEnt{w: w})
			continue
		}
		// The slot stays reserved (not freed) while the handler runs so
		// RearmFiring can reclaim it; schedules made inside it draw other
		// slots.
		h, kind := sl.h, sl.kind
		site := sl.site
		s.firingID = makeEventID(i, sl.gen)
		s.rearmDelay = -1
		// Sampled wall attribution: time every WallSampleEvery-th callback
		// and charge its site with the stride-scaled cost. Observational
		// only — the reading never reaches the simulation or its dumps.
		sample := s.wallNs != nil && s.nFired%WallSampleEvery == 0
		var t0 time.Time
		if sample {
			t0 = time.Now() //esglint:wallclock wall-time profiler sample, never fed back into the simulation
		}
		h.Fire(kind)
		if sample {
			dt := int64(time.Since(t0)) * WallSampleEvery //esglint:wallclock wall-time profiler sample, never fed back into the simulation
			j := int(site)
			if j >= len(s.wallNs) {
				j = len(s.wallNs) - 1 // site registered after EnableWallProfile
			}
			s.wallNs[j] += dt
		}
		if d := s.rearmDelay; d > 0 {
			sl = &s.slots[i] // the handler may have grown the arena
			sl.at = s.now + d
			// lastFired is still this firing's seq, so each firing parents
			// its re-arm.
			s.stampLocked(sl, site, h, kind)
			s.nRearmed++
			s.pushEventLocked(i)
			if r := s.ring; r != nil {
				r.Put(CoreRearm, int64(s.now), int64(sl.at), sl.seq, sl.parent, site)
			}
		} else {
			s.freeSlotLocked(i)
		}
	}
}

// launch is a Go goroutine's body: fn, then the baton passed on. A
// goroutine unwound at teardown recovers the stopped panic here.
func (s *Sim) launch(fn func()) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(stoppedPanic); !ok {
				panic(r)
			}
		}
		s.exit()
	}()
	fn()
}
