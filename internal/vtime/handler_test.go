package vtime

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// orderRun drives one ordering script. Each event the script arms is an
// orderEv; form says whether it is armed as a closure (ScheduleSite, and
// RescheduleHandler given a func adapter, as the closure re-key did), as
// a handler (ScheduleHandler / RescheduleHandler), or alternately.
type orderRun struct {
	s    *Sim
	form int // formClosure, formHandler or formMixed
	n    int // events armed so far (formMixed alternates on it)
	log  []string
}

const (
	formClosure = iota
	formHandler
	formMixed
)

// orderEv logs every fire with its instant and kind, re-arms itself by
// RearmFiring while rearms lasts, and runs then (if set) inside the
// callback.
type orderEv struct {
	r      *orderRun
	name   string
	every  time.Duration
	rearms int
	then   func()
}

func (e *orderEv) Fire(kind uint8) {
	e.r.log = append(e.r.log, fmt.Sprintf("%v %s/%d", e.r.s.Elapsed(), e.name, kind))
	if e.rearms > 0 {
		e.rearms--
		e.r.s.RearmFiring(e.every)
	}
	if e.then != nil {
		e.then()
	}
}

func (r *orderRun) asClosure() bool {
	r.n++
	return r.form == formClosure || r.form == formMixed && r.n%2 == 1
}

func (r *orderRun) arm(site Site, d time.Duration, name string, then func()) EventID {
	return r.armEv(site, d, &orderEv{r: r, name: name, then: then})
}

func (r *orderRun) armEv(site Site, d time.Duration, e *orderEv) EventID {
	if r.asClosure() {
		return r.s.ScheduleSite(site, d, func() { e.Fire(0) })
	}
	return r.s.ScheduleHandler(site, d, e, 0)
}

// rekey moves id to a new event that fires with kind 1.
func (r *orderRun) rekey(site Site, id EventID, d time.Duration, name string) EventID {
	e := &orderEv{r: r, name: name}
	if r.asClosure() {
		return r.s.RescheduleHandler(site, id, d, funcHandler(func() { e.Fire(1) }), 0)
	}
	return r.s.RescheduleHandler(site, id, d, e, 1)
}

// sleeper arms a spawn event after d0 whose callback starts a managed
// goroutine that sleeps d and logs its wakeup. The goroutine is the only
// runnable one until it parks, so its sleep's seq is deterministic.
func (r *orderRun) sleeper(d0, d time.Duration, name string) {
	r.s.ScheduleSite(siteTestOnce, d0, func() {
		r.s.Go(func() {
			r.s.SleepSite(siteTestTick, d)
			r.log = append(r.log, fmt.Sprintf("%v %s/wake", r.s.Elapsed(), name))
		})
	})
}

// TestEventFormsFireInOrder mixes closure events, handler events and
// parker wakeups at shared instants, with re-keys and RearmFiring, and
// checks each script fires in (at, seq) order and writes the same fires
// and core-ring records (kind, instants, seq, parent, site) whichever
// form its events take.
func TestEventFormsFireInOrder(t *testing.T) {
	const ms = time.Millisecond
	cases := []struct {
		name   string
		script func(r *orderRun)
	}{
		{"same instant", func(r *orderRun) {
			r.arm(siteTestOnce, ms, "a", nil)
			r.sleeper(0, ms, "p")
			r.arm(siteTestTick, ms, "b", func() { r.arm(siteTestOnce, 0, "b0", nil) })
			r.arm(siteTestLater, ms, "c", nil)
			r.sleeper(ms/2, ms/2, "q")
			r.arm(siteTestOnce, 2*ms, "d", nil)
		}},
		{"re-key", func(r *orderRun) {
			x := r.arm(siteTestOnce, 5*ms, "x", nil)
			y := r.arm(siteTestOnce, ms, "y", nil)
			r.sleeper(0, ms, "p")
			r.rekey(siteTestLater, x, ms, "x'") // in place, after y by seq
			r.rekey(siteTestTick, y, ms, "y'")  // in place, now after x'
			z := r.arm(siteTestOnce, 0, "z", nil)
			r.rekey(siteTestOnce, z, ms, "z'") // zero-delay: cancelled and armed afresh
			c := r.arm(siteTestOnce, 3*ms, "c", nil)
			r.s.Cancel(c)
			r.rekey(siteTestOnce, c, ms, "c'") // stale id: armed afresh
			r.rekey(siteTestOnce, 0, 2*ms, "n'")
		}},
		{"rearm", func(r *orderRun) {
			r.armEv(siteTestTick, ms, &orderEv{r: r, name: "tick", every: ms, rearms: 3,
				then: func() { r.arm(siteTestOnce, 0, "echo", nil) }})
			r.arm(siteTestOnce, 2*ms, "two", nil)
			r.sleeper(ms, ms, "p")
			r.armEv(siteTestLater, 3*ms, &orderEv{r: r, name: "slow", every: 2 * ms, rearms: 1})
			r.arm(siteTestOnce, 3*ms, "three", nil)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var wantLog []string
			var wantRing []CoreEvent
			for form, formName := range []string{"closure", "handler", "mixed"} {
				s := NewSim(1)
				ring := NewCoreRing(1 << 10)
				s.SetCoreRing(ring)
				r := &orderRun{s: s, form: form}
				s.Run(func() {
					tc.script(r)
					s.Sleep(10 * ms)
				})
				recs := ring.Snapshot()
				var last CoreEvent
				for i, e := range recs {
					if e.Kind != CoreFire {
						continue
					}
					if i > 0 && (e.At < last.At || e.At == last.At && e.Seq <= last.Seq) {
						t.Errorf("%s: fire (at %d, seq %d) after (at %d, seq %d)", formName, e.At, e.Seq, last.At, last.Seq)
					}
					last = e
				}
				if form == formClosure {
					wantLog, wantRing = r.log, recs
					continue
				}
				if !reflect.DeepEqual(r.log, wantLog) {
					t.Errorf("%s fires\n%v\nclosure fires\n%v", formName, r.log, wantLog)
				}
				if !reflect.DeepEqual(recs, wantRing) {
					t.Errorf("%s core ring\n%v\nclosure core ring\n%v", formName, recs, wantRing)
				}
			}
			kinds := map[CoreKind]int{}
			for _, e := range wantRing {
				kinds[e.Kind]++
			}
			if len(wantLog) < 6 || kinds[CoreFire] < 6 {
				t.Fatalf("script fired %d events (%d fire records): %v", len(wantLog), kinds[CoreFire], wantLog)
			}
		})
	}
}

// BenchmarkHandlerEvent is the event core's own cost: it schedules and
// fires handler events on one Sim, 64 per instant batch, and reports the
// cost per event. The closure case arms the same events through a func
// bound once, as a hot path caching its callback would.
func BenchmarkHandlerEvent(b *testing.B) {
	const batch = 64
	run := func(b *testing.B, arm func(s *Sim, d time.Duration)) {
		s := NewSim(1)
		s.Run(func() {
			for i := 0; i < batch; i++ { // size the slot arena and the heap
				arm(s, time.Microsecond)
			}
			s.Sleep(2 * time.Microsecond)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				arm(s, time.Duration(i%batch+1)*time.Microsecond)
				if i%batch == batch-1 {
					s.Sleep(batch * time.Microsecond)
				}
			}
			s.Sleep(batch * time.Microsecond)
		})
	}
	b.Run("handler", func(b *testing.B) {
		var h kindCounter
		run(b, func(s *Sim, d time.Duration) { s.ScheduleHandler(siteTestTick, d, &h, 1) })
	})
	b.Run("closure", func(b *testing.B) {
		var h kindCounter
		fn := func() { h.Fire(1) }
		run(b, func(s *Sim, d time.Duration) { s.ScheduleSite(siteTestTick, d, fn) })
	})
}
