// Fixture standing in for the real internal/vtime: the one package where
// the wall clock may be read (vtimeclock), where bare go statements are
// the sanctioned spawn implementation (managedgo), and whose blocking
// primitives — matched by name and path, exactly like the real package —
// seed vtblock's may-block map.
package vtime

import "time"

func RealNow() time.Time { return time.Now() }

func RealSleep(d time.Duration) { time.Sleep(d) }

// Sim is the simulated clock twin: its method names are the blocking
// seeds vtblock roots its may-block map at.
type Sim struct{}

// Sleep suspends the caller on virtual time (blocking seed).
func (s *Sim) Sleep(d time.Duration) {}

// SleepSite is Sleep with site attribution (blocking seed).
func (s *Sim) SleepSite(d time.Duration, site int) {}

// Run joins managed goroutines before returning (blocking seed).
func (s *Sim) Run(fn func()) {}

// Go starts a managed goroutine (spawn seed); the bare go statement in
// its body is the sanctioned implementation managedgo exempts.
func (s *Sim) Go(fn func()) { go fn() }

// Cond is the condition-variable twin. Wait and WaitTimeout are
// blocking seeds, but vtblock exempts them when called with a lock held:
// the cond releases its locker before parking.
type Cond struct{}

func (c *Cond) Wait() {}

func (c *Cond) WaitTimeout(d time.Duration) bool { return true }

func (c *Cond) Broadcast() {}

// WaitGroup is the managed-spawn wait group twin. Wait is a blocking
// seed with no cond exemption; Go is a spawn seed.
type WaitGroup struct{}

func (w *WaitGroup) Wait() {}

func (w *WaitGroup) Go(fn func()) { go fn() }
