package vtime

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTeardownUnwindsEveryParkKind parks goroutines in Sleep, Cond.Wait
// and Cond.WaitTimeout and lets Run's main return: Run closes their
// wakeup channels, and each must unwind through its deferred code before
// Run returns.
func TestTeardownUnwindsEveryParkKind(t *testing.T) {
	s := NewSim(1)
	var unwound atomic.Int32
	const parked = 6
	s.Run(func() {
		var mu sync.Mutex
		cond := s.NewCond(&mu)
		for i := 0; i < parked/3; i++ {
			s.Go(func() {
				defer unwound.Add(1)
				s.Sleep(time.Hour)
			})
			s.Go(func() {
				defer unwound.Add(1)
				mu.Lock()
				defer mu.Unlock()
				cond.Wait()
			})
			s.Go(func() {
				defer unwound.Add(1)
				mu.Lock()
				defer mu.Unlock()
				cond.WaitTimeout(time.Hour)
			})
		}
		s.Sleep(time.Second)
	})
	if n := unwound.Load(); n != parked {
		t.Fatalf("%d of %d parked goroutines unwound before Run returned", n, parked)
	}
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
			s.Sleep(time.Microsecond) // warm the parker freelist
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
