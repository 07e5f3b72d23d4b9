package vtime

import (
	"sync"
	"time"
)

// Site identifies the scheduling call site of an event — "simnet.growth",
// "rm.retry-backoff", "chaos.fault" — as a compact integer so every
// pending event can carry its origin at zero marginal cost. Site 0 is
// the untagged default. Sites are the unit of provenance labeling and of
// per-subsystem profiling: the flight recorder stamps them into packed
// records, and the core profiler attributes event counts and wall time
// to them.
type Site uint16

// The global site registry. Sites are registered once, at package init
// time (`var siteX = vtime.RegisterSite(...)`), so IDs are assigned in
// deterministic package-initialization order and equal binaries agree on
// the mapping. Dumps and reports always render the name, never the raw
// ID, so recorded output is stable even if the numbering shifts.
var (
	siteMu    sync.Mutex
	siteNames = []string{"untagged"}
	siteIDs   = map[string]Site{"untagged": 0}
)

// RegisterSite interns name and returns its Site. Registering the same
// name twice returns the same Site. The registry is capped at 65535
// sites; exceeding it panics (a leak of per-call registrations, not a
// workload property).
func RegisterSite(name string) Site {
	siteMu.Lock()
	defer siteMu.Unlock()
	if id, ok := siteIDs[name]; ok {
		return id
	}
	if len(siteNames) > 0xFFFF {
		panic("vtime: site registry overflow (register sites at init, not per call)")
	}
	id := Site(len(siteNames))
	siteNames = append(siteNames, name)
	siteIDs[name] = id
	return id
}

// SiteName returns the registered name of s ("untagged" for 0, "?" for
// an unknown ID).
func SiteName(s Site) string {
	siteMu.Lock()
	defer siteMu.Unlock()
	if int(s) < len(siteNames) {
		return siteNames[s]
	}
	return "?"
}

// NumSites reports how many sites are registered (including untagged).
func NumSites() int {
	siteMu.Lock()
	defer siteMu.Unlock()
	return len(siteNames)
}

// Sites built into the clock itself: Sleep wakeups, AfterFunc timers and
// condition-variable timeouts that arrive through the generic Clock
// interface and therefore carry no caller tag of their own.
var (
	siteSleep       = RegisterSite("vtime.sleep")
	siteAfterFunc   = RegisterSite("vtime.afterfunc")
	siteCondTimeout = RegisterSite("vtime.cond-timeout")
)

// SleepTagged is Sleep with a provenance site tag when clk is a Sim; on
// any other clock it degrades to a plain Sleep. Protocol code written
// against the Clock interface uses this to label its delay semantics
// ("rm.retry-backoff", "hrm.stage-wait") without depending on the
// simulated clock.
func SleepTagged(clk Clock, site Site, d time.Duration) {
	if s, ok := clk.(*Sim); ok {
		s.SleepSite(site, d)
		return
	}
	clk.Sleep(d)
}

// AfterFuncTagged is AfterFunc with a provenance site tag when clk is a
// Sim; on any other clock it degrades to a plain AfterFunc.
func AfterFuncTagged(clk Clock, site Site, d time.Duration, fn func()) Timer {
	if s, ok := clk.(*Sim); ok {
		return &simTimer{s: s, id: s.ScheduleSite(site, d, fn)}
	}
	return clk.AfterFunc(d, fn)
}

// CoreStats is a point-in-time snapshot of the event core's vital signs,
// the raw material of the core profiler: queue depths and their
// high-water marks, arena occupancy, and lifetime event counts.
type CoreStats struct {
	Now        time.Duration // virtual time elapsed since Epoch
	HeapLen    int           // events currently in the timer heap
	HeapMax    int           // high-water mark of HeapLen
	ImmLen     int           // live entries in the zero-delay FIFO
	ImmMax     int           // high-water mark of ImmLen
	ArenaSlots int           // event slots ever allocated
	FreeSlots  int           // of those, currently on the freelist
	Scheduled  uint64        // events ever scheduled (incl. reschedules)
	Fired      uint64        // events delivered
	Cancelled  uint64        // events revoked before firing
	Rearmed    uint64        // RearmFiring re-arms
}

// CoreStats returns the current core vitals.
func (s *Sim) CoreStats() CoreStats {
	return CoreStats{
		Now:        s.now,
		HeapLen:    len(s.heap),
		HeapMax:    s.heapMax,
		ImmLen:     s.immLive,
		ImmMax:     s.immMax,
		ArenaSlots: len(s.slots),
		FreeSlots:  len(s.free),
		Scheduled:  s.nSched,
		Fired:      s.nFired,
		Cancelled:  s.nCancelled,
		Rearmed:    s.nRearmed,
	}
}

// WallSampleEvery is the deterministic sampling stride of the wall-time
// profiler: every N-th fired callback is timed with two wall-clock reads
// and its cost, scaled by N, is attributed to the event's site. The
// stride keeps always-on overhead near one nanosecond per event while a
// few thousand samples already rank subsystems faithfully.
const WallSampleEvery = 16

// EnableWallProfile turns on sampled wall-nanosecond attribution of
// event callbacks to their scheduling sites. Purely observational: it
// reads the wall clock around sampled callbacks but never feeds the
// result back into the simulation, so virtual-time behavior and all
// recorded streams are unchanged. Wall numbers vary run to run and are
// deliberately excluded from flight dumps.
func (s *Sim) EnableWallProfile() {
	if s.wallNs == nil {
		s.wallNs = make([]int64, NumSites())
	}
}

// WallProfile returns the sampled wall-nanosecond totals attributed to
// each site, indexed by Site, or nil when profiling is off. Sites
// registered after EnableWallProfile fold into the last index.
func (s *Sim) WallProfile() []int64 {
	if s.wallNs == nil {
		return nil
	}
	out := make([]int64, len(s.wallNs))
	copy(out, s.wallNs)
	return out
}
