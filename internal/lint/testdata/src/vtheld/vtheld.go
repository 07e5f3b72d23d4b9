// Package vtheld exercises vtblock: every way a lock can be held across
// a virtual-time suspension — direct seed call, transitive call within
// the package, transitive call across a package boundary (vtdeps),
// channel receive, select, channel range, transport frame read — plus the shapes that must
// stay quiet: unlocking first, Cond.Wait (the cond releases its locker
// before parking), detached callbacks, and an escaped site.
package vtheld

import (
	"io"
	"sync"
	"time"

	"esgrid/internal/transport"
	"esgrid/internal/vtime"
	"vtdeps"
)

type Server struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	clk  *vtime.Sim
	cond *vtime.Cond
	wg   *vtime.WaitGroup
	ch   chan int
}

// Direct: the callee is a blocking seed.
func (s *Server) directSleep(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.clk.Sleep(d) // want `s\.mu held across a call to vtime\.Sim\.Sleep`
}

// Unlocking before the suspension is the fix, not a finding.
func (s *Server) unlockFirst(d time.Duration) {
	s.mu.Lock()
	s.mu.Unlock()
	s.clk.Sleep(d)
}

// helper blocks one call below the seed; the local fixpoint must give
// it a may-block entry.
func (s *Server) helper(d time.Duration) {
	s.clk.Sleep(d)
}

// Transitive within the package.
func (s *Server) transitive(d time.Duration) {
	s.mu.Lock()
	s.helper(d) // want `s\.mu held across a call to vtheld\.Server\.helper \(may block via vtime\.Sim\.Sleep\)`
	s.mu.Unlock()
}

// Two hops deep: the exported via chain stays truncated to one hop.
func (s *Server) helper2(d time.Duration) {
	s.helper(d)
}

func (s *Server) deep(d time.Duration) {
	s.mu.Lock()
	s.helper2(d) // want `may block via vtheld\.Server\.helper`
	s.mu.Unlock()
}

// Transitive across a package boundary: vtdeps.Fetch's may-block entry
// was recorded when its package was analyzed (dependencies first).
func (s *Server) crossPackage(d time.Duration) {
	s.mu.Lock()
	vtdeps.Fetch(d) // want `s\.mu held across a call to vtdeps\.Fetch \(may block via vtime\.Sim\.Sleep\)`
	s.mu.Unlock()
}

// A non-blocking cross-package call is fine.
func (s *Server) crossPackageClean() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return vtdeps.Peek()
}

// Direct runtime suspensions under the lock.
func (s *Server) receive() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return <-s.ch // want `s\.mu held across a channel receive`
}

func (s *Server) selectWait() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want `s\.mu held across a select with no default`
	case v := <-s.ch:
		return v
	}
}

// A select with a default never parks.
func (s *Server) selectPoll() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case v := <-s.ch:
		return v
	default:
		return 0
	}
}

func (s *Server) drain() int {
	var sum int
	s.mu.Lock()
	defer s.mu.Unlock()
	for v := range s.ch { // want `s\.mu held across a range over a channel`
		sum += v
	}
	return sum
}

// A frame read parks until the peer writes: transport's reads are seeds.
func (s *Server) readFrame(r io.Reader, v any) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return transport.ReadJSON(r, v) // want `s\.mu held across a call to transport\.ReadJSON`
}

// Writing a frame never parks.
func (s *Server) writeFrame(w io.Writer, v any) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return transport.WriteJSON(w, v)
}

// Read locks count too, and are named in the finding.
func (s *Server) readLocked(d time.Duration) {
	s.rw.RLock()
	defer s.rw.RUnlock()
	s.clk.Sleep(d) // want `s\.rw \(RLock\) held across a call to vtime\.Sim\.Sleep`
}

// Cond.Wait releases its locker before parking: the sanctioned pattern.
func (s *Server) condWait() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cond.Wait()
}

// WaitGroup.Wait has no such exemption.
func (s *Server) wgWait() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wg.Wait() // want `s\.mu held across a call to vtime\.WaitGroup\.Wait`
}

// run invokes a callback; the literal's body belongs to the callee's
// execution context, so the walk does not attribute it to the caller.
func run(fn func()) { fn() }

func (s *Server) detachedCallback(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	run(func() { s.clk.Sleep(d) })
}

// An audited escape suppresses the finding.
func (s *Server) escaped(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.clk.Sleep(d) //esglint:vtblock fixture: lock provably disjoint from the blocking path
}
