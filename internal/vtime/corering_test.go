package vtime

import (
	"testing"
	"time"
)

var (
	siteTestTick  = RegisterSite("coreringtest.tick")
	siteTestOnce  = RegisterSite("coreringtest.once")
	siteTestLater = RegisterSite("coreringtest.later")
)

func TestCoreRingPackRoundTrip(t *testing.T) {
	r := NewCoreRing(10) // rounds up to 16
	if got := len(r.recs); got != 16 {
		t.Fatalf("capacity = %d, want 16", got)
	}
	r.Put(CoreSchedule, 100, 250, 7, 3, siteTestTick)
	r.Put(CoreFire, 250, 0, 7, 3, siteTestTick)
	if r.Written() != 2 || r.Retained() != 2 {
		t.Fatalf("written/retained = %d/%d, want 2/2", r.Written(), r.Retained())
	}
	evs := r.Snapshot()
	if len(evs) != 2 {
		t.Fatalf("snapshot len = %d", len(evs))
	}
	want := CoreEvent{At: 100, Due: 250, Seq: 7, Parent: 3, Kind: CoreSchedule, Site: siteTestTick}
	if evs[0] != want {
		t.Fatalf("decoded %+v, want %+v", evs[0], want)
	}
	if evs[1].Kind != CoreFire || evs[1].At != 250 || evs[1].Seq != 7 {
		t.Fatalf("fire decoded %+v", evs[1])
	}
}

func TestCoreRingOverwritesOldest(t *testing.T) {
	r := NewCoreRing(8)
	for i := 0; i < 20; i++ {
		r.Put(CoreFire, int64(i), 0, uint64(i), 0, 0)
	}
	if r.Written() != 20 || r.Retained() != 8 {
		t.Fatalf("written/retained = %d/%d, want 20/8", r.Written(), r.Retained())
	}
	evs := r.Snapshot()
	if evs[0].Seq != 12 || evs[len(evs)-1].Seq != 19 {
		t.Fatalf("retained window [%d, %d], want [12, 19]", evs[0].Seq, evs[len(evs)-1].Seq)
	}
}

// TestSimWritesCoreRing drives every ring-writing path in the core —
// schedule (heap and zero-delay), fire, cancel, re-key in place and
// RearmFiring — and checks the decoded stream carries the causal parent
// and site tags.
func TestSimWritesCoreRing(t *testing.T) {
	s := NewSim(1)
	ring := NewCoreRing(1 << 10)
	s.SetCoreRing(ring)
	var onceSeq uint64
	s.Run(func() {
		ticks := 0
		s.ScheduleSite(siteTestTick, time.Millisecond, func() {
			ticks++
			if ticks < 3 {
				s.RearmFiring(time.Millisecond)
			}
		})
		s.ScheduleSite(siteTestOnce, 2*time.Millisecond, func() {})
		// Re-key in place: push a pending heap timer further out.
		var later kindCounter
		id := s.ScheduleHandler(siteTestLater, time.Hour, &later, 0)
		id = s.RescheduleHandler(siteTestLater, id, 2*time.Hour, &later, 1)
		s.Sleep(10 * time.Millisecond)
		s.Cancel(id)
		s.ScheduleSite(siteTestOnce, 0, func() {}) // zero-delay FIFO path
		s.Sleep(time.Millisecond)
	})
	kinds := map[CoreKind]int{}
	bySite := map[Site]int{}
	for _, e := range ring.Snapshot() {
		kinds[e.Kind]++
		bySite[e.Site]++
		if e.Kind == CoreFire && e.Site == siteTestOnce && onceSeq == 0 {
			onceSeq = e.Seq
		}
	}
	if kinds[CoreSchedule] == 0 || kinds[CoreFire] == 0 || kinds[CoreCancel] != 1 || kinds[CoreRearm] != 2 {
		t.Fatalf("kind mix %v", kinds)
	}
	if bySite[siteTestTick] < 3 || bySite[siteTestLater] != 3 { // sched + resched + cancel
		t.Fatalf("site mix %v", bySite)
	}
	// The tick's re-arm records must parent-chain onto its own fires.
	var lastTickFire uint64
	for _, e := range ring.Snapshot() {
		if e.Site != siteTestTick {
			continue
		}
		if e.Kind == CoreRearm && e.Parent != lastTickFire {
			t.Fatalf("rearm seq %d parent = %d, want fired seq %d", e.Seq, e.Parent, lastTickFire)
		}
		if e.Kind == CoreFire {
			lastTickFire = e.Seq
		}
	}
}

func TestSiteRegistry(t *testing.T) {
	a := RegisterSite("coreringtest.dup")
	b := RegisterSite("coreringtest.dup")
	if a != b {
		t.Fatalf("re-registering returned %d then %d", a, b)
	}
	if SiteName(a) != "coreringtest.dup" {
		t.Fatalf("SiteName = %q", SiteName(a))
	}
	if SiteName(0) != "untagged" {
		t.Fatalf("site 0 = %q, want untagged", SiteName(0))
	}
	if SiteName(Site(0xFFFF)) != "?" {
		t.Fatalf("unknown site = %q, want ?", SiteName(Site(0xFFFF)))
	}
	if NumSites() < 4 {
		t.Fatalf("NumSites = %d", NumSites())
	}
}

func TestTaggedHelpersOnSim(t *testing.T) {
	s := NewSim(2)
	ring := NewCoreRing(256)
	s.SetCoreRing(ring)
	s.Run(func() {
		fired := false
		tm := AfterFuncTagged(s, siteTestOnce, time.Millisecond, func() { fired = true })
		SleepTagged(s, siteTestTick, 5*time.Millisecond)
		if !fired {
			t.Error("tagged AfterFunc did not fire")
		}
		if tm.Stop() {
			t.Error("Stop after fire reported true")
		}
	})
	sawSleep := false
	for _, e := range ring.Snapshot() {
		if e.Kind == CoreFire && e.Site == siteTestTick {
			sawSleep = true
		}
	}
	if !sawSleep {
		t.Fatal("tagged sleep wakeup not recorded under its site")
	}
}

func TestCoreStatsAndElapsed(t *testing.T) {
	s := NewSim(3)
	s.Run(func() {
		s.ScheduleSite(siteTestOnce, time.Millisecond, func() {})
		id := s.ScheduleSite(siteTestOnce, time.Hour, func() {})
		s.Sleep(2 * time.Millisecond)
		s.Cancel(id)
	})
	st := s.CoreStats()
	if st.Scheduled < 3 || st.Fired < 2 || st.Cancelled != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.Now != 2*time.Millisecond || s.Elapsed() != st.Now {
		t.Fatalf("Now = %v, Elapsed = %v", st.Now, s.Elapsed())
	}
	if st.HeapMax < 1 || st.ArenaSlots < 1 {
		t.Fatalf("high-water marks %+v", st)
	}
}

func TestWallProfileAttributesSites(t *testing.T) {
	s := NewSim(4)
	if s.WallProfile() != nil {
		t.Fatal("profile non-nil before enable")
	}
	s.EnableWallProfile()
	s.Run(func() {
		work := func() {
			x := 0
			for j := 0; j < 100; j++ {
				x += j
			}
			_ = x
		}
		// Four callbacks + one wakeup per cycle: a period of 5 fires is
		// coprime to the sampling stride, so callback fires sweep every
		// residue of nFired%WallSampleEvery and some are always sampled.
		for i := 0; i < 4*WallSampleEvery; i++ {
			s.ScheduleSite(siteTestTick, time.Millisecond, work)
			s.ScheduleSite(siteTestTick, 2*time.Millisecond, work)
			s.ScheduleSite(siteTestTick, 3*time.Millisecond, work)
			s.ScheduleSite(siteTestTick, 4*time.Millisecond, work)
			s.Sleep(5 * time.Millisecond)
		}
	})
	prof := s.WallProfile()
	if prof == nil {
		t.Fatal("profile nil after enable")
	}
	var total int64
	for _, ns := range prof {
		total += ns
	}
	if total <= 0 {
		t.Fatalf("no wall time attributed: %v", prof)
	}
}

// kindCounter is a test Handler that counts its fires by kind and, while
// rearms lasts, re-arms itself one microsecond on.
type kindCounter struct {
	s      *Sim
	fired  [4]int
	rearms int
}

func (h *kindCounter) Fire(kind uint8) {
	h.fired[kind]++
	if h.rearms > 0 {
		h.rearms--
		h.s.RearmFiring(time.Microsecond)
	}
}

// A re-key to the untagged site moves a pending event in place: it fires
// once, with the new kind.
func TestRescheduleUntagged(t *testing.T) {
	s := NewSim(5)
	s.Run(func() {
		var h kindCounter
		id := s.ScheduleHandler(siteTestOnce, time.Hour, &h, 0)
		if s.RescheduleHandler(0, id, time.Millisecond, &h, 1) != id {
			t.Error("re-key of a pending heap event changed its id")
		}
		s.Sleep(2 * time.Millisecond)
		if fired := h.fired[0] + h.fired[1]; fired != 1 || h.fired[1] != 1 {
			t.Errorf("rescheduled event fired %d times (by kind %v)", fired, h.fired)
		}
	})
}

func TestCancelEdgeCases(t *testing.T) {
	s := NewSim(6)
	ring := NewCoreRing(64)
	s.SetCoreRing(ring)
	s.Run(func() {
		if s.Cancel(0) {
			t.Error("cancelling the zero id succeeded")
		}
		// Cancel a zero-delay event before the FIFO drains it: the slot is
		// marked dead in place and reaped by popNextLocked.
		fired := false
		id := s.ScheduleSite(siteTestOnce, 0, func() { fired = true })
		if !s.Cancel(id) {
			t.Error("cancelling a queued zero-delay event failed")
		}
		if s.Cancel(id) {
			t.Error("double cancel succeeded")
		}
		s.Sleep(time.Millisecond)
		if fired {
			t.Error("cancelled zero-delay event fired anyway")
		}
		// A fired event's id is stale: cancel must be a no-op.
		id = s.ScheduleSite(siteTestOnce, time.Millisecond, func() {})
		s.Sleep(2 * time.Millisecond)
		if s.Cancel(id) {
			t.Error("cancelling a fired event succeeded")
		}
	})
	cancels := 0
	for _, e := range ring.Snapshot() {
		if e.Kind == CoreCancel {
			cancels++
		}
	}
	if cancels != 1 {
		t.Fatalf("recorded %d cancels, want 1", cancels)
	}
}

func TestInstantHook(t *testing.T) {
	s := NewSim(7)
	hooks := 0
	s.SetInstantHook(func() { hooks++ })
	s.Run(func() {
		for i := 0; i < 3; i++ {
			s.ScheduleSite(siteTestOnce, 0, func() { s.ArmInstantHook() })
			s.Sleep(time.Millisecond)
		}
	})
	if hooks != 3 {
		t.Fatalf("instant hook ran %d times, want 3", hooks)
	}
	s.SetInstantHook(nil)
	s.ArmInstantHook() // no-op once unset
}

func TestTaggedHelpersDegradeOnRealClock(t *testing.T) {
	var clk Real
	SleepTagged(clk, siteTestTick, 0)
	done := make(chan struct{})
	tm := AfterFuncTagged(clk, siteTestTick, 0, func() { close(done) })
	<-done
	tm.Stop()
}
