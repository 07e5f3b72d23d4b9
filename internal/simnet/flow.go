package simnet

import (
	"math"
	"time"

	"esgrid/internal/vtime"
)

// flow is one direction of a connection's traffic: a fluid-model TCP
// stream with AIMD window dynamics. Only the baton holder touches it.
type flow struct {
	net  *Net
	conn *Conn
	dir  int // index of the sending endpoint
	src  *Host
	dst  *Host
	path []*simplex
	owd  time.Duration // one-way propagation delay along path
	rtt  time.Duration // round-trip (both directions' paths)

	mss       int
	diskBound bool

	// Congestion window state (bytes). windowCap caches the rate bound
	// window*8/rtt in bits/s (Inf for zero-RTT loopback or probes).
	window    float64
	ssthresh  float64
	maxWindow float64
	windowCap float64
	lossEv    vtime.EventID
	lossRate  float64 // flow rate when the loss timer was sampled

	// Window growth ticks once per RTT on the grid growAt + k·rtt while
	// growing. A flow that is not window-limited sleeps: growEv is 0,
	// the ticks it skips are applied when the window is next read
	// (growTo), and setRate re-arms growEv at growAt once the flow
	// becomes window-limited (woken). lossSet and lingerSet stamp when
	// lossEv and lingerEv were scheduled, which orders them against a
	// skipped tick due at their own instant.
	growing   bool
	growEv    vtime.EventID
	growAt    time.Duration
	woken     bool
	lossSet   stamp
	lingerSet stamp

	// Transmission state. transmitted is the cumulative payload bytes
	// fully accounted as of virtual instant lastT; between events the
	// true value is transmitted + rate/8*(t-lastT), clamped to queuedEnd.
	// segs is a head-indexed FIFO (segsHead..len) so steady-state
	// enqueue/retire reuses the backing array instead of reslicing it away.
	active      bool
	lingering   bool
	rate        float64 // bits/s
	lastT       time.Duration
	transmitted float64
	queuedEnd   float64
	segs        []*segment
	segsHead    int
	segsInl     [4]*segment // segs' first backing array
	doneEv      vtime.EventID
	lingerEv    vtime.EventID
	removed     bool

	// inflight holds segments whose transmission completed and whose
	// delivery event (one propagation delay later) is pending. Deliveries
	// are armed with a constant delay (owd) in retirement order, so the
	// event heap's (at, seq) order preserves this FIFO and each delivery
	// event pops the head instead of naming its segment.
	inflight []*segment
	inflHead int
	inflInl  [4]*segment // inflight's first backing array

	resRefs []hostRes  // cached resource membership (see refs)
	refsInl [4]hostRes // resRefs' first backing array

	// seq is the flow's creation stamp (registerConnLocked): the stable
	// sort key that canonicalizes allocation order within a flush.
	seq uint64

	// Incremental allocation state (alloc.go): whether the flow is
	// entered in its resources' membership lists (its position in each
	// is resRefs[j].pos), its component's persistent record (nil until
	// the first flush after an attach), the flush visit stamp, and
	// whether it is queued as a dirty seed.
	attached bool
	comp     *component
	epoch    uint64
	dirty    bool
}

// stamp is the virtual instant an event was scheduled at, and whether
// it was scheduled by the end-of-instant flush — after every event due
// at that instant, a skipped growth tick included.
type stamp struct {
	at      time.Duration
	inFlush bool
}

// tickOrder places a reader of the window against a skipped growth
// tick due at the reader's own instant.
type tickOrder uint8

const (
	tickUnknown tickOrder = iota // the event heap's order is not known here
	tickBefore                   // the tick would have fired first
	tickAfter                    // the reader would have run first
)

// segment is a unit of enqueued payload: real bytes, virtual length, or a
// FIN marker. end is the cumulative flow offset at which it completes.
type segment struct {
	end  float64
	data []byte // real payload (nil for virtual / fin)
	n    int64  // payload length in bytes
	fin  bool
}

type hostRes struct {
	r   *res
	w   float64 // resource units consumed per bit/s of flow rate
	pos int     // the flow's index in r.flows while attached
}

// refs returns the flow's full resource membership (links + host
// budgets), cached; invalidated when disk binding changes. It is built
// on the flow's inline array, which holds a short path's list, so the
// flow's conn allocation carries it.
func (f *flow) refs() []hostRes {
	if f.resRefs == nil {
		refs := f.refsInl[:0]
		for _, sx := range f.path {
			refs = append(refs, hostRes{r: &sx.res, w: 1})
		}
		f.resRefs = f.appendHostResources(refs)
	}
	return f.resRefs
}

// invalidateRefs drops the cached resource list (e.g. on SetDiskBound)
// and with it any component record flattened from the old edges.
func (f *flow) invalidateRefs() {
	f.resRefs = nil
	f.comp.markStale()
}

// initFlow sets up f, which lives in its conn, as one direction of c.
func initFlow(f *flow, n *Net, c *Conn, dir int, src, dst *Host, path []*simplex, buffer int, mss int) {
	*f = flow{
		net: n, conn: c, dir: dir, src: src, dst: dst, path: path, mss: mss,
	}
	f.segs = f.segsInl[:0]
	f.inflight = f.inflInl[:0]
	for _, s := range path {
		f.owd += s.delay
	}
	f.rtt = 2 * f.owd // symmetric routes; refined by the conn if needed
	f.maxWindow = float64(buffer)
	f.window = float64(initialWindowMSS * mss)
	if f.window > f.maxWindow {
		f.window = f.maxWindow
	}
	// Slow-start threshold starts unbounded, as in real TCP: the first
	// loss sets it. The window is still capped by maxWindow (the socket
	// buffer), so buffer tuning remains the binding limit.
	f.ssthresh = math.Inf(1)
	f.updateWindowCap()
}

// A flow's events are typed (vtime.Handler): the flow is the receiver
// and one of these kinds says which handler runs, so arming any of them
// binds no callback.
const (
	evGrow uint8 = iota
	evLoss
	evDone
	evLinger
	evDeliver
)

// fireHook, when set, sees every flow event before it runs and takes it
// over by returning true. Tests use it to check a flow's state around
// one of its handlers.
var fireHook func(f *flow, kind uint8) bool

// Fire implements vtime.Handler.
func (f *flow) Fire(kind uint8) {
	if fireHook != nil && fireHook(f, kind) {
		return
	}
	switch kind {
	case evGrow:
		f.onGrow()
	case evLoss:
		f.onLoss()
	case evDone:
		f.onSegmentDone()
	case evLinger:
		f.onLinger()
	case evDeliver:
		f.deliverHead()
	}
}

// queued reports the number of segments awaiting transmission.
func (f *flow) queued() int { return len(f.segs) - f.segsHead }

// headSeg returns the oldest queued segment.
func (f *flow) headSeg() *segment { return f.segs[f.segsHead] }

// popSegLocked removes and returns the head segment, resetting the FIFO
// to the front of its backing array when it drains.
func (f *flow) popSegLocked() *segment {
	seg := f.segs[f.segsHead]
	f.segs[f.segsHead] = nil
	f.segsHead++
	if f.segsHead == len(f.segs) {
		f.segs = f.segs[:0]
		f.segsHead = 0
	}
	return seg
}

// deliverHead pops the oldest in-flight segment and hands it to the
// receiving endpoint; it is the target of every delivery event.
func (f *flow) deliverHead() {
	seg := f.inflight[f.inflHead]
	f.inflight[f.inflHead] = nil
	f.inflHead++
	if f.inflHead == len(f.inflight) {
		f.inflight = f.inflight[:0]
		f.inflHead = 0
	}
	f.conn.eps[1-f.dir].deliverLocked(seg)
}

func (f *flow) updateWindowCap() {
	if f.rtt <= 0 {
		f.windowCap = math.Inf(1)
		return
	}
	f.windowCap = f.window * 8 / f.rtt.Seconds()
}

// appendHostResources appends the per-host budgets this flow consumes.
func (f *flow) appendHostResources(out []hostRes) []hostRes {
	if f.src != nil && f.src.cpu != nil {
		out = append(out, hostRes{r: f.src.cpu, w: f.src.cfg.CPU.weight(f.mss)})
	}
	if f.dst != nil && f.dst.cpu != nil && f.dst != f.src {
		out = append(out, hostRes{r: f.dst.cpu, w: f.dst.cfg.CPU.weight(f.mss)})
	}
	if f.diskBound {
		if f.src != nil && f.src.disk != nil {
			out = append(out, hostRes{r: f.src.disk, w: 1})
		}
		if f.dst != nil && f.dst.disk != nil && f.dst != f.src {
			out = append(out, hostRes{r: f.dst.disk, w: 1})
		}
	}
	return out
}

func (f *flow) crosses(l *Link) bool {
	for _, s := range f.path {
		if s.link == l {
			return true
		}
	}
	return false
}

// fold accounts transmission progress up to virtual instant now.
func (f *flow) fold(now time.Duration) {
	if now <= f.lastT {
		return
	}
	if f.active && f.rate > 0 {
		f.transmitted += f.rate / 8 * (now - f.lastT).Seconds()
		if f.transmitted > f.queuedEnd {
			f.transmitted = f.queuedEnd
		}
	}
	f.lastT = now
}

// transmittedAt reports cumulative transmitted bytes at instant now
// without mutating state.
func (f *flow) transmittedAt(now time.Duration) float64 {
	t := f.transmitted
	if f.active && f.rate > 0 && now > f.lastT {
		t += f.rate / 8 * (now - f.lastT).Seconds()
		if t > f.queuedEnd {
			t = f.queuedEnd
		}
	}
	return t
}

// enqueue adds a segment. Returns true if the flow transitioned from
// inactive to active (the caller must then recompute allocations).
func (f *flow) enqueue(now time.Duration, seg *segment) (activated bool) {
	f.fold(now)
	f.queuedEnd += float64(seg.n)
	seg.end = f.queuedEnd
	f.segs = append(f.segs, seg)
	f.net.clk.Cancel(f.lingerEv)
	f.lingerEv = 0
	f.lingering = false
	if !f.active {
		f.active = true // begin window growth and loss sampling
		f.scheduleGrowth()
		f.scheduleLoss()
		return true
	}
	// Already active: just make sure a completion event is pending.
	f.scheduleCompletion(now)
	return false
}

// scheduleGrowth starts the per-RTT window update if the window can
// still grow and the flow is active.
func (f *flow) scheduleGrowth() {
	if f.growing || !f.active || f.rtt <= 0 || f.window >= f.maxWindow {
		return
	}
	f.growing = true
	f.woken = false
	f.growAt = f.net.clk.Elapsed() + f.rtt
	f.growEv = f.net.clk.ScheduleHandler(siteGrowth, f.rtt, f, evGrow)
}

// growStep is one growth tick: double below ssthresh (slow start), add
// one mss at or above it (congestion avoidance), clamp at maxW. The
// chain ends once the result reaches maxW.
func growStep(w, ssthresh, maxW, mss float64) float64 {
	if w < ssthresh {
		w *= 2
	} else {
		w += mss
	}
	return math.Min(w, maxW)
}

// growWindow applies up to k growth ticks to w, stopping at the one that
// ends the chain, and returns the window and the ticks taken. It equals
// k calls of growStep bit for bit: congestion-avoidance steps that stay
// below maxW and inside w's binade add integers to a value on a grid of
// at most one byte, so every partial sum is exact and a run of them is
// one addition; a step across a binade or onto maxW is taken alone, as
// the tick takes it.
func growWindow(w, ssthresh, maxW, mss float64, k int64) (float64, int64) {
	var n int64
	for n < k {
		if w >= ssthresh {
			if j := exactSteps(w, maxW, mss, k-n); j > 0 {
				w += float64(j) * mss
				n += j
				continue
			}
		}
		w = growStep(w, ssthresh, maxW, mss)
		n++
		if w >= maxW {
			break
		}
	}
	return w, n
}

// exactSteps is the number, at most k, of mss additions to w that stay
// below both maxW and the top of w's binade.
func exactSteps(w, maxW, mss float64, k int64) int64 {
	_, e := math.Frexp(w) // w < 2^e: the top of its binade
	lim := math.Min(math.Ldexp(1, e), maxW)
	if w >= lim {
		return 0
	}
	// The quotient is a first guess; the two checks below compare exact
	// sums (below lim every one is exact) and settle it.
	j := int64(math.Ceil((lim-w)/mss)) - 1
	for j > 0 && w+float64(j)*mss >= lim {
		j--
	}
	for w+float64(j+1)*mss < lim {
		j++
	}
	return min(j, k)
}

// growTo applies every growth tick a sleeping flow skipped up to now.
// A tick due exactly at now is applied when at says it comes first; an
// unknown order counts as a tie (Net.GrowthStats), and so does a reader
// that has overtaken a woken tick due now, which the per-tick order
// would have fired before it.
func (f *flow) growTo(now time.Duration, at tickOrder) {
	if f.growAt > now || !f.growing {
		return
	}
	if f.growEv != 0 {
		// Armed: the tick fires itself, in the per-tick order unless a
		// wake gave it a later seq than the tick before would have.
		if f.woken && f.growAt == now && at != tickAfter {
			f.net.growTies++
		}
		return
	}
	k := int64((now-f.growAt)/f.rtt) + 1
	if f.growAt+time.Duration(k-1)*f.rtt == now {
		switch at {
		case tickAfter:
			k--
		case tickUnknown:
			f.net.growTies++
		}
	}
	if k == 0 {
		return
	}
	w, used := growWindow(f.window, f.ssthresh, f.maxWindow, float64(f.mss), k)
	f.window = w
	f.updateWindowCap()
	f.net.growSkipped += uint64(used)
	if w >= f.maxWindow {
		f.growing = false
		return
	}
	f.growAt += time.Duration(used) * f.rtt
}

// orderAfter places this flow's own event, scheduled at s and firing at
// now, against a growth tick due at now: the tick comes first iff the
// event was scheduled after the tick before it, whose instant is
// growAt-rtt. An event the flush scheduled at that very instant came
// after it too; any other scheduled then is a tie.
func (f *flow) orderAfter(s stamp, now time.Duration) tickOrder {
	prev := f.growAt - f.rtt
	switch {
	case f.growAt != now:
		return tickBefore // no tick due at now: nothing to order
	case s.at > prev || s.at == prev && s.inFlush:
		return tickBefore
	case s.at < prev:
		return tickAfter
	}
	return tickUnknown
}

func (f *flow) onGrow() {
	n := f.net
	f.growing = false
	f.growEv = 0
	f.woken = false
	if f.removed || !f.active {
		return
	}
	wasCap := f.windowCap
	f.window = growStep(f.window, f.ssthresh, f.maxWindow, float64(f.mss))
	f.updateWindowCap()
	// Growing a window below the resource share changes nothing: only a
	// window-limited flow re-allocates, and only it re-arms the next
	// tick — by reclaiming this event's own slot, a plain field write
	// instead of a schedule cycle. Any other flow sleeps; the ticks it
	// skips can only add to its window, and growTo applies them when
	// the window is next read.
	limited := f.rate >= wasCap-1e-6
	if f.window < f.maxWindow {
		f.growing = true
		f.growAt += f.rtt
		if limited {
			f.growEv = n.clk.RearmFiring(f.rtt)
		}
	}
	if limited {
		n.markFlowDirtyLocked(f)
	}
}

// scheduleLoss samples the next random-loss instant from the flow's
// current rate and the loss probability accumulated along its path.
func (f *flow) scheduleLoss() {
	var lambda float64
	if f.active && !f.removed && f.rate > 0 {
		var p float64
		for _, s := range f.path {
			p += s.loss
		}
		pktPerSec := f.rate / 8 / float64(f.mss)
		lambda = pktPerSec * p
	}
	if lambda <= 0 {
		f.net.clk.Cancel(f.lossEv)
		f.lossEv = 0
		return
	}
	f.lossRate = f.rate
	f.lossSet = f.net.stampLocked()
	wait := f.net.clk.RandExp(1 / lambda)
	f.lossEv = f.net.clk.RescheduleHandler(siteLoss, f.lossEv, time.Duration(wait*float64(time.Second)), f, evLoss)
}

func (f *flow) onLoss() {
	n := f.net
	f.lossEv = 0
	if f.removed || !f.active {
		return
	}
	now := n.clk.Elapsed()
	f.growTo(now, f.orderAfter(f.lossSet, now))
	f.ssthresh = math.Max(f.window/2, float64(2*f.mss))
	f.window = f.ssthresh
	f.updateWindowCap()
	f.scheduleGrowth()
	n.markFlowDirtyLocked(f)
	f.scheduleLoss()
}

// setRate applies a newly computed fair rate (caller folded to now) and
// reschedules the head-of-queue completion event. Unchanged rates with an
// armed completion need no rescheduling (the timer stays accurate), which
// keeps global recomputations cheap.
//
// A sleeping flow that the new rate makes window-limited wakes first: its
// next tick is armed at growAt, on its original grid, before this call
// re-arms its completion or loss.
func (f *flow) setRate(now time.Duration, rate float64) {
	if f.growing && f.growEv == 0 && rate >= f.windowCap-1e-6 {
		f.growEv = f.net.clk.ScheduleHandler(siteGrowth, f.growAt-now, f, evGrow)
		f.woken = true
		f.net.growWakes++
	}
	unchanged := rate == f.rate
	f.rate = rate
	f.lastT = now
	if unchanged && f.doneEv != 0 {
		return
	}
	f.scheduleCompletion(now)
	// Loss is a Poisson process in packets, so its intensity tracks the
	// rate: re-sample the next loss whenever the rate moves materially.
	if f.lossEv == 0 || rate > 1.5*f.lossRate || rate < 0.67*f.lossRate {
		f.scheduleLoss()
	}
}

// scheduleCompletion arms (or re-arms) the event that fires when the head
// segment finishes transmitting. Zero-length (FIN) heads complete
// immediately.
func (f *flow) scheduleCompletion(now time.Duration) {
	f.completeReady(now)
	if f.queued() == 0 || f.removed || f.rate <= 0 {
		// Empty, gone, or stalled (outage; re-armed on next recompute).
		f.net.clk.Cancel(f.doneEv)
		f.doneEv = 0
		return
	}
	need := f.headSeg().end - f.transmittedAt(now)
	if need < 0 {
		need = 0
	}
	// Round up by one tick so the timer never fires a fraction of a byte
	// early (which would re-arm a zero-delay event forever).
	secs := need * 8 / f.rate
	const maxDelay = 1000 * time.Hour
	d := maxDelay
	if secs < maxDelay.Seconds() {
		d = time.Duration(secs*float64(time.Second)) + time.Nanosecond
	}
	// RescheduleHandler re-keys the pending event in place — on the per-RTT
	// growth path this timer moves on every rate change, and a fused
	// re-arm halves the heap traffic of a cancel-then-schedule pair.
	f.doneEv = f.net.clk.RescheduleHandler(siteCompletion, f.doneEv, d, f, evDone)
}

func (f *flow) onSegmentDone() {
	f.doneEv = 0
	if f.removed {
		return
	}
	now := f.net.clk.Elapsed()
	f.fold(now)
	f.scheduleCompletion(now)
}

// completeReady retires every head segment already fully transmitted:
// schedules its delivery owd later and wakes blocked writers. If the
// queue drains, a linger timer delays deactivation so back-to-back writes
// don't thrash the allocator.
func (f *flow) completeReady(now time.Duration) {
	done := f.transmittedAt(now)
	retired := false
	for f.queued() > 0 && f.headSeg().end <= done+1e-3 {
		seg := f.popSegLocked()
		f.inflight = append(f.inflight, seg)
		f.net.clk.ScheduleHandler(siteDeliver, f.owd, f, evDeliver)
		retired = true
	}
	// Writers block only on transmission progress, so one broadcast per
	// retirement batch (not per bookkeeping pass) is enough to wake them.
	if retired {
		f.conn.writeCond[f.dir].Broadcast()
	}
	if f.queued() == 0 && f.active && !f.lingering {
		f.lingering = true
		linger := f.rtt
		if linger <= 0 {
			linger = time.Millisecond
		}
		f.lingerSet = f.net.stampLocked()
		f.lingerEv = f.net.clk.ScheduleHandler(siteLinger, linger, f, evLinger)
	}
}

func (f *flow) onLinger() {
	f.lingerEv = 0
	if f.removed || !f.lingering || f.queued() > 0 {
		f.lingering = false
		return
	}
	f.lingering = false
	f.active = false
	f.net.clk.Cancel(f.lossEv)
	f.lossEv = 0
	// The window outlives the deactivation: settle the ticks it skipped
	// before the chain stops.
	now := f.net.clk.Elapsed()
	f.growTo(now, f.orderAfter(f.lingerSet, now))
	f.net.clk.Cancel(f.growEv)
	f.growEv = 0
	f.growing = false
	f.net.flowDeactivatedLocked(f)
}

// remove permanently retires the flow, folding its transmitted bytes into
// the source host's cumulative counters.
func (f *flow) remove(now time.Duration) {
	if f.removed {
		return
	}
	f.fold(now)
	f.removed = true
	if f.active {
		f.net.flowsActive.Add(-1)
	}
	f.active = false
	f.net.detachLocked(f)
	// Untransmitted segments can never reach the receiver: recycle them.
	// In-flight segments stay owned by their pending delivery events.
	for f.queued() > 0 {
		f.net.putSegLocked(f.popSegLocked())
	}
	for _, ev := range [...]vtime.EventID{f.doneEv, f.lossEv, f.growEv, f.lingerEv} {
		f.net.clk.Cancel(ev)
	}
	f.doneEv, f.lossEv, f.growEv, f.lingerEv = 0, 0, 0, 0
	if f.src != nil && f.dst != nil {
		if f.src.retiredBytesTo == nil {
			f.src.retiredBytesTo = map[string]int64{}
		}
		f.src.retiredBytesTo[f.dst.name] += toByteUnits(f.transmitted)
	}
}
