package vtime

import (
	"sync"
	"testing"
	"time"
)

func TestSimSleepAdvancesVirtualTime(t *testing.T) {
	s := NewSim(1)
	var elapsed time.Duration
	start := time.Now()
	s.Run(func() {
		t0 := s.Now()
		s.Sleep(3 * time.Hour)
		elapsed = s.Now().Sub(t0)
	})
	if elapsed != 3*time.Hour {
		t.Fatalf("virtual elapsed = %v, want 3h", elapsed)
	}
	if real := time.Since(start); real > 5*time.Second {
		t.Fatalf("3h of virtual time took %v of real time", real)
	}
}

func TestSimNowStartsAtEpoch(t *testing.T) {
	s := NewSim(1)
	s.Run(func() {
		if !s.Now().Equal(Epoch) {
			t.Errorf("Now() = %v, want Epoch %v", s.Now(), Epoch)
		}
	})
}

func TestSimOrderingOfSleepers(t *testing.T) {
	s := NewSim(1)
	var order []int
	s.Run(func() {
		wg := NewWaitGroup(s)
		for i, d := range []time.Duration{30 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond} {
			i, d := i, d
			wg.Go(func() {
				s.Sleep(d)
				order = append(order, i)
			})
		}
		wg.Wait()
	})
	want := []int{1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSimAfterFuncFiresAtDueTime(t *testing.T) {
	s := NewSim(1)
	var firedAt time.Time
	s.Run(func() {
		s.AfterFunc(90*time.Second, func() { firedAt = s.Now() })
		s.Sleep(5 * time.Minute)
	})
	if want := Epoch.Add(90 * time.Second); !firedAt.Equal(want) {
		t.Fatalf("fired at %v, want %v", firedAt, want)
	}
}

func TestSimTimerStop(t *testing.T) {
	s := NewSim(1)
	fired := false
	s.Run(func() {
		tm := s.AfterFunc(time.Second, func() { fired = true })
		if !tm.Stop() {
			t.Error("first Stop() = false, want true")
		}
		if tm.Stop() {
			t.Error("second Stop() = true, want false")
		}
		s.Sleep(2 * time.Second)
	})
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestSimCondSignalWakesWaiter(t *testing.T) {
	s := NewSim(1)
	var mu sync.Mutex
	ready := false
	var wokenAt time.Time
	s.Run(func() {
		cond := s.NewCond(&mu)
		wg := NewWaitGroup(s)
		wg.Go(func() {
			mu.Lock()
			for !ready {
				cond.Wait()
			}
			mu.Unlock()
			wokenAt = s.Now()
		})
		wg.Go(func() {
			s.Sleep(time.Minute)
			mu.Lock()
			ready = true
			cond.Broadcast()
			mu.Unlock()
		})
		wg.Wait()
	})
	if want := Epoch.Add(time.Minute); !wokenAt.Equal(want) {
		t.Fatalf("woken at %v, want %v", wokenAt, want)
	}
}

func TestSimCondWaitTimeout(t *testing.T) {
	s := NewSim(1)
	var mu sync.Mutex
	var ok bool
	var waited time.Duration
	s.Run(func() {
		cond := s.NewCond(&mu)
		mu.Lock()
		t0 := s.Now()
		ok = cond.WaitTimeout(250 * time.Millisecond)
		waited = s.Now().Sub(t0)
		mu.Unlock()
	})
	if ok {
		t.Fatal("WaitTimeout = true with no signaller, want false")
	}
	if waited != 250*time.Millisecond {
		t.Fatalf("waited %v, want 250ms", waited)
	}
}

func TestSimCondSignalSkipsTimedOutWaiter(t *testing.T) {
	s := NewSim(1)
	var mu sync.Mutex
	got := make(map[string]bool)
	s.Run(func() {
		cond := s.NewCond(&mu)
		wg := NewWaitGroup(s)
		wg.Go(func() { // times out at 10ms
			mu.Lock()
			got["short"] = cond.WaitTimeout(10 * time.Millisecond)
			mu.Unlock()
		})
		wg.Go(func() { // patient waiter
			s.Sleep(time.Millisecond) // ensure ordering after the short waiter registers
			mu.Lock()
			got["long"] = cond.WaitTimeout(time.Hour)
			mu.Unlock()
		})
		wg.Go(func() {
			s.Sleep(20 * time.Millisecond)
			mu.Lock()
			cond.Signal() // short already timed out; must reach the long waiter
			mu.Unlock()
		})
		wg.Wait()
	})
	if got["short"] {
		t.Error("short waiter reported signalled, want timeout")
	}
	if !got["long"] {
		t.Error("long waiter reported timeout, want signalled")
	}
}

func TestSimDeterministicRand(t *testing.T) {
	a, b := NewSim(42), NewSim(42)
	for i := 0; i < 100; i++ {
		if a.Rand() != b.Rand() {
			t.Fatal("same-seed sims diverged")
		}
	}
	c := NewSim(43)
	same := true
	for i := 0; i < 10; i++ {
		if NewSim(42).Rand() == c.Rand() {
			continue
		}
		same = false
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestSimDeadlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	s := NewSim(1)
	s.Run(func() {
		var mu sync.Mutex
		cond := s.NewCond(&mu)
		mu.Lock()
		cond.Wait() // nobody will ever signal and no events pending
	})
}

func TestRealClockBasics(t *testing.T) {
	var c Clock = Real{}
	t0 := c.Now()
	c.Sleep(10 * time.Millisecond)
	if c.Now().Sub(t0) < 5*time.Millisecond {
		t.Fatal("Real.Sleep did not sleep")
	}
	var mu sync.Mutex
	cond := c.NewCond(&mu)
	mu.Lock()
	if cond.WaitTimeout(10 * time.Millisecond) {
		t.Fatal("Real cond WaitTimeout = true with no signaller")
	}
	mu.Unlock()

	done := make(chan struct{})
	c.Go(func() { close(done) })
	<-done

	fired := make(chan struct{})
	c.AfterFunc(time.Millisecond, func() { close(fired) })
	select {
	case <-fired:
	case <-time.After(time.Second):
		t.Fatal("Real.AfterFunc did not fire")
	}
}

func TestWaitGroupWaitsForAll(t *testing.T) {
	s := NewSim(7)
	var doneAt time.Time
	s.Run(func() {
		wg := NewWaitGroup(s)
		for i := 1; i <= 5; i++ {
			d := time.Duration(i) * time.Second
			wg.Go(func() { s.Sleep(d) })
		}
		wg.Wait()
		doneAt = s.Now()
	})
	if want := Epoch.Add(5 * time.Second); !doneAt.Equal(want) {
		t.Fatalf("Wait returned at %v, want %v", doneAt, want)
	}
}

// TestWaitGroupUnwindsAtTeardown: when Run returns with a goroutine
// parked in WaitGroup.Wait and others parked inside the group, the
// teardown unwinds them all. Wait's cond relocks the group's mutex as it
// unwinds, so Wait must release it, or the members' deferred Done blocks
// on it and Run never returns.
func TestWaitGroupUnwindsAtTeardown(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		s := NewSim(1)
		s.Run(func() {
			wg := NewWaitGroup(s)
			var mu sync.Mutex
			never := s.NewCond(&mu)
			for i := 0; i < 8; i++ {
				wg.Go(func() {
					mu.Lock()
					defer mu.Unlock()
					never.Wait()
				})
			}
			s.Go(wg.Wait)
			s.Sleep(time.Second)
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return: a WaitGroup member's Done blocked during teardown")
	}
}

func TestSimManyGoroutinesStress(t *testing.T) {
	s := NewSim(3)
	const n = 500
	total := 0
	s.Run(func() {
		wg := NewWaitGroup(s)
		for i := 0; i < n; i++ {
			i := i
			wg.Go(func() {
				for j := 0; j < 5; j++ {
					s.Sleep(time.Duration(1+(i+j)%17) * time.Millisecond)
				}
				total++
			})
		}
		wg.Wait()
	})
	if total != n {
		t.Fatalf("completed %d goroutines, want %d", total, n)
	}
}

func TestSimRandDistributionsDeterministic(t *testing.T) {
	a, b := NewSim(9), NewSim(9)
	for i := 0; i < 50; i++ {
		if a.RandExp(2.5) != b.RandExp(2.5) {
			t.Fatal("RandExp diverged for equal seeds")
		}
		if a.RandNorm(10, 3) != b.RandNorm(10, 3) {
			t.Fatal("RandNorm diverged for equal seeds")
		}
	}
	// Sanity on the moments.
	s := NewSim(10)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += s.RandExp(4)
	}
	if mean := sum / n; mean < 3.8 || mean > 4.2 {
		t.Fatalf("RandExp mean = %v, want ~4", mean)
	}
}

func TestSimAfterFuncZeroDelay(t *testing.T) {
	s := NewSim(1)
	fired := false
	s.Run(func() {
		s.AfterFunc(-time.Second, func() { fired = true }) // clamped to 0
		s.Sleep(time.Millisecond)
	})
	if !fired {
		t.Fatal("zero-delay AfterFunc never fired")
	}
}

func TestWaitGroupNegativePanics(t *testing.T) {
	s := NewSim(1)
	s.Run(func() {
		defer func() {
			if recover() == nil {
				t.Error("negative WaitGroup did not panic")
			}
		}()
		wg := NewWaitGroup(s)
		wg.Done()
	})
}

// A periodic event that re-arms itself with a non-positive delay would
// have its slot freed under an id that still looks live; RearmFiring
// refuses before touching any state.
func TestRearmFiringNonPositivePanics(t *testing.T) {
	s := NewSim(1)
	for _, d := range []time.Duration{0, -time.Millisecond} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RearmFiring(%v) did not panic", d)
				}
			}()
			s.RearmFiring(d)
		}()
	}
}
