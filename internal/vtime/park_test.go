package vtime

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// atEachP runs f once at each GOMAXPROCS in procs.
func atEachP(t *testing.T, procs []int, f func(t *testing.T, p int)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		f(t, p)
	}
}

// TestTeardownUnwindsEveryParkKind parks goroutines in Sleep, Cond.Wait
// and Cond.WaitTimeout and lets Run's main return: each must unwind
// through its deferred code before Run returns, one at a time in the
// order their waiters were made — here, the order they first parked —
// so the events their deferred calls schedule are all in the core ring,
// in that order, at every P.
func TestTeardownUnwindsEveryParkKind(t *testing.T) {
	const parked = 24
	var first []int64
	atEachP(t, []int{1, 2, 8}, func(t *testing.T, p int) {
		s := NewSim(1)
		ring := NewCoreRing(1024)
		s.SetCoreRing(ring)
		var order []int64 // first parks, in order
		s.Run(func() {
			var mu sync.Mutex
			cond := s.NewCond(&mu)
			for i := range int64(parked) {
				s.Go(func() {
					defer s.Schedule(time.Duration(i+1), func() {})
					order = append(order, i+1)
					switch i % 3 {
					case 0:
						s.Sleep(time.Hour)
					case 1:
						mu.Lock()
						defer mu.Unlock()
						cond.Wait()
					default:
						mu.Lock()
						defer mu.Unlock()
						cond.WaitTimeout(time.Hour)
					}
				})
			}
			s.Sleep(time.Second)
		})
		var got []int64
		for _, e := range ring.Snapshot() {
			if e.Kind == CoreSchedule && e.Due-e.At <= parked {
				got = append(got, e.Due-e.At)
			}
		}
		if len(order) != parked || !slices.Equal(got, order) || first != nil && !slices.Equal(got, first) {
			t.Fatalf("P=%d: teardown schedules %v; parked in order %v, at P=1 unwound in order %v", p, got, order, first)
		}
		first = got
	})
}

// TestRunQueueOrder: goroutines readied by Go, Signal, Broadcast and
// same-instant timeouts run one at a time — an atomic count of running
// ones never passes 1 — the one readied last first, then the others in
// the order they were readied, and each runs until it parks however
// often it yields its thread; the log is the same at every P.
func TestRunQueueOrder(t *testing.T) {
	const want = "go:3 go:1 go:2 signal:1 signal:3 signal:2 broadcast:2 broadcast:1 broadcast:3 timeout:2 timeout:1 timeout:3"
	atEachP(t, []int{1, 2, 8}, func(t *testing.T, p int) {
		s := NewSim(1)
		var log []string
		var running atomic.Int32
		step := func(what string) {
			if n := running.Add(1); n > 1 {
				t.Errorf("P=%d: %d managed goroutines ran at once", p, n)
			}
			log = append(log, what)
			for range 3 {
				runtime.Gosched()
			}
			running.Add(-1)
		}
		s.Run(func() {
			var mu sync.Mutex
			cond := s.NewCond(&mu)
			wait := func(d time.Duration) {
				mu.Lock()
				defer mu.Unlock()
				cond.WaitTimeout(d)
			}
			for id := 1; id <= 3; id++ {
				s.Go(func() {
					step(fmt.Sprint("go:", id))
					wait(-1)
					step(fmt.Sprint("signal:", id))
					wait(-1)
					step(fmt.Sprint("broadcast:", id))
					wait(time.Second)
					step(fmt.Sprint("timeout:", id))
				})
			}
			s.Sleep(time.Millisecond)
			cond.Signal()
			cond.Signal()
			s.Sleep(time.Millisecond)
			cond.Signal()
			s.Sleep(time.Millisecond)
			cond.Broadcast()
			s.Sleep(2 * time.Second)
		})
		if got := strings.Join(log, " "); got != want {
			t.Fatalf("P=%d: goroutines ran as\n%s\nwant\n%s", p, got, want)
		}
	})
}

// TestWakeAfterStopIsDropped delivers wakeups to goroutines whose
// channels teardown has closed: a Signal and a Broadcast from an
// unwinding goroutine's deferred code, and a waiter's timeout fired after
// Run has returned. Each must be dropped — neither a send on a closed
// channel nor a send that blocks.
func TestWakeAfterStopIsDropped(t *testing.T) {
	s := NewSim(1)
	var mu sync.Mutex
	woken := s.NewCond(&mu)
	timed := s.NewCond(&mu)
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		s.Run(func() {
			for i := 0; i < 3; i++ {
				s.Go(func() {
					mu.Lock()
					defer mu.Unlock()
					woken.Wait()
				})
			}
			s.Go(func() {
				mu.Lock()
				defer mu.Unlock()
				timed.WaitTimeout(time.Hour)
			})
			s.Go(func() {
				defer func() {
					woken.Signal()
					woken.Broadcast()
				}()
				s.Sleep(time.Hour)
			})
			s.Sleep(time.Second)
		})
		// The unwound WaitTimeout left its waiter queued; fire its
		// timeout as a late event would.
		tc := timed.(*chanCond)
		if len(tc.waiters) != 1 {
			panic("the timed waiter is not queued")
		}
		tc.waiters[0].Fire(0)
	}()
	select {
	case r := <-done:
		if r != nil {
			t.Fatalf("a wakeup after stop panicked: %v", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a wakeup after stop blocked")
	}
}

// BenchmarkParkWake is the cost of one hand-off between two managed
// goroutines: one parks and the other wakes. In "sleep" they alternate
// through Sleep, so each hand-off is a wakeup event fired by the clock;
// in "cond" they alternate through a Cond, so each is a Signal and a
// Wait. ns/op and allocs/op are per hand-off.
func BenchmarkParkWake(b *testing.B) {
	b.Run("sleep", func(b *testing.B) {
		s := NewSim(1)
		s.Run(func() {
			wg := NewWaitGroup(s)
			half := (b.N + 1) / 2
			s.Sleep(time.Microsecond) // warm the waiter freelist
			b.ReportAllocs()
			b.ResetTimer()
			for start := 1; start <= 2; start++ {
				wg.Go(func() {
					s.Sleep(time.Duration(start) * time.Microsecond)
					for i := 1; i < half; i++ {
						s.Sleep(2 * time.Microsecond)
					}
				})
			}
			wg.Wait()
		})
	})
	b.Run("cond", func(b *testing.B) {
		s := NewSim(1)
		s.Run(func() {
			var mu sync.Mutex
			cond := s.NewCond(&mu)
			turn := 0
			wg := NewWaitGroup(s)
			half := (b.N + 1) / 2
			b.ReportAllocs()
			b.ResetTimer()
			for me := 0; me < 2; me++ {
				wg.Go(func() {
					mu.Lock()
					defer mu.Unlock()
					for i := 0; i < half; i++ {
						for turn != me {
							cond.Wait()
						}
						turn = 1 - me
						cond.Signal()
					}
				})
			}
			wg.Wait()
		})
	})
}
