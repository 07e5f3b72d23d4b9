// Package chaos is a declarative, virtual-clock-driven fault-schedule
// subsystem: the failure scenarios that §8's SC'00 demo and the
// long-running replication runs survived — server crashes, network
// outages and degradations, tape-system stalls — expressed as data
// (Schedule) instead of ad-hoc code inside test bodies, executed by a
// Runner against injector interfaces that simnet, gridftp's hosts and
// the HRM expose, and audited afterwards by the Invariants checker.
//
// The package deliberately imports none of the simulated components;
// the small injector interfaces below are satisfied by *simnet.Link,
// *simnet.Host, *simnet.Net and *hrm.HRM, which keeps the fault model
// reusable against any future backend that exposes the same knobs.
package chaos

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"esgrid/internal/netlogger"
	"esgrid/internal/vtime"
)

// Provenance site tag(s) for the delays this package schedules on
// the virtual clock (flight-recorder attribution).
var siteFault = vtime.RegisterSite("chaos.fault")

// Kind names a fault type.
type Kind string

// The fault vocabulary. Every kind maps onto a concrete failure the
// paper's deployment saw: routers dropping links, congestion crushing
// throughput, packet-loss storms, servers power-cycling, the mass
// storage system wedging on a tape mount, and control channels reset
// mid-session.
const (
	// KindLinkDown takes a link fully down for Duration; in-flight
	// connections crossing it are reset.
	KindLinkDown Kind = "link.down"
	// KindLinkDegrade multiplies a link's capacity by Factor for
	// Duration (congestion; no connection resets).
	KindLinkDegrade Kind = "link.degrade"
	// KindLinkFlap cycles a link down/up Count times across Duration.
	KindLinkFlap Kind = "link.flap"
	// KindLossBurst sets a link's packet-loss rate to Factor for
	// Duration, then restores the previous rate.
	KindLossBurst Kind = "loss.burst"
	// KindHostCrash crashes a host for Duration: all its connections
	// reset, new dials fail, then it reboots with disk state preserved.
	KindHostCrash Kind = "host.crash"
	// KindHRMStall adds Delay of tape-machinery stall to every staging
	// on a target HRM for Duration (a stuck mount robot).
	KindHRMStall Kind = "hrm.stall"
	// KindHRMError makes a target HRM fail every staging for Duration.
	KindHRMError Kind = "hrm.error"
	// KindDNSOutage takes the directory/DNS service down for Duration.
	KindDNSOutage Kind = "dns.outage"
	// KindCtrlReset resets a host's connections once at Start (a
	// control-channel RST without the crash).
	KindCtrlReset Kind = "ctrl.reset"
)

// Fault is one scheduled failure.
type Fault struct {
	Kind   Kind
	Target string        // link name "a-b", host name, or stager name; "" for dns.outage
	Start  time.Duration // offset from Runner.Apply
	// Duration is how long the fault holds before the runner heals it.
	// Ignored by ctrl.reset (instantaneous).
	Duration time.Duration
	// Factor is the capacity multiplier (link.degrade) or loss rate
	// (loss.burst).
	Factor float64
	// Count is the number of down/up cycles for link.flap.
	Count int
	// Delay is the injected stall per staging for hrm.stall.
	Delay time.Duration
}

func (f Fault) String() string {
	return fmt.Sprintf("%s(%s)@%v+%v", f.Kind, f.Target, f.Start, f.Duration)
}

// Schedule is a fault scenario: the declarative replacement for
// hand-rolled SetUp/SetCapacityFactor calls sprinkled through tests.
type Schedule []Fault

// LinkInjector is the link-level fault surface (*simnet.Link).
type LinkInjector interface {
	SetUp(up, reset bool)
	SetCapacityFactor(f float64)
	SetLossRate(p float64)
	LossRate() float64
}

// HostInjector is the host-level fault surface (*simnet.Host).
type HostInjector interface {
	SetDown(down bool)
	ResetConns(reason string) int
}

// DNSInjector is the name-service fault surface (*simnet.Net).
type DNSInjector interface {
	SetDNS(up bool)
}

// Stager is the mass-storage fault surface (*hrm.HRM).
type Stager interface {
	SetStageDelay(d time.Duration)
	SetStageError(err error)
}

// ErrStagingFault is what an hrm.error fault makes staging return.
var ErrStagingFault = errors.New("chaos: mass storage system unavailable")

// Targets registers the named injection points a Runner may act on.
type Targets struct {
	links   map[string]LinkInjector
	hosts   map[string]HostInjector
	stagers map[string]Stager
	dns     DNSInjector
}

// NewTargets returns an empty registry.
func NewTargets() *Targets {
	return &Targets{
		links:   map[string]LinkInjector{},
		hosts:   map[string]HostInjector{},
		stagers: map[string]Stager{},
	}
}

// AddLink registers a link injector under name (conventionally "a-b").
func (t *Targets) AddLink(name string, l LinkInjector) *Targets { t.links[name] = l; return t }

// AddHost registers a host injector.
func (t *Targets) AddHost(name string, h HostInjector) *Targets { t.hosts[name] = h; return t }

// AddStager registers a mass-storage injector.
func (t *Targets) AddStager(name string, s Stager) *Targets { t.stagers[name] = s; return t }

// SetDNS registers the name-service injector.
func (t *Targets) SetDNS(d DNSInjector) *Targets { t.dns = d; return t }

// Runner executes Schedules on the virtual clock, emitting chaos.*
// NetLogger events for every injection and heal so the Invariants
// checker (and a human reading the ULM stream) can line faults up
// against transfer activity.
type Runner struct {
	clk     vtime.Clock
	log     *netlogger.Log
	targets *Targets

	mu          sync.Mutex
	activations int
}

// NewRunner returns a Runner driving targets on clk. log may be nil.
func NewRunner(clk vtime.Clock, log *netlogger.Log, targets *Targets) *Runner {
	return &Runner{clk: clk, log: log, targets: targets}
}

// Activations reports how many fault injections have fired so far (a
// flap counts each down transition).
func (r *Runner) Activations() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.activations
}

func (r *Runner) emit(name string, f Fault, kv ...string) {
	if r.log == nil {
		return
	}
	all := append([]string{"kind", string(f.Kind), "target", f.Target}, kv...)
	r.log.Emit("chaos", name, all...)
}

func (r *Runner) activated() {
	r.mu.Lock()
	r.activations++
	r.mu.Unlock()
}

// Validate checks that every fault is well-formed and its target is
// registered.
func (r *Runner) Validate(s Schedule) error {
	for i, f := range s {
		if f.Start < 0 || f.Duration < 0 {
			return fmt.Errorf("chaos: fault %d (%s): negative time", i, f)
		}
		switch f.Kind {
		case KindLinkDown, KindLinkDegrade, KindLinkFlap, KindLossBurst:
			if _, ok := r.targets.links[f.Target]; !ok {
				return fmt.Errorf("chaos: fault %d (%s): unknown link %q", i, f, f.Target)
			}
			if f.Kind == KindLinkDegrade && (f.Factor < 0 || f.Factor >= 1) {
				return fmt.Errorf("chaos: fault %d (%s): degrade factor %v outside [0,1)", i, f, f.Factor)
			}
			if f.Kind == KindLossBurst && (f.Factor <= 0 || f.Factor > 1) {
				return fmt.Errorf("chaos: fault %d (%s): loss rate %v outside (0,1]", i, f, f.Factor)
			}
			if f.Kind == KindLinkFlap && f.Count < 1 {
				return fmt.Errorf("chaos: fault %d (%s): flap needs Count >= 1", i, f)
			}
		case KindHostCrash, KindCtrlReset:
			if _, ok := r.targets.hosts[f.Target]; !ok {
				return fmt.Errorf("chaos: fault %d (%s): unknown host %q", i, f, f.Target)
			}
		case KindHRMStall, KindHRMError:
			if _, ok := r.targets.stagers[f.Target]; !ok {
				return fmt.Errorf("chaos: fault %d (%s): unknown stager %q", i, f, f.Target)
			}
			if f.Kind == KindHRMStall && f.Delay <= 0 {
				return fmt.Errorf("chaos: fault %d (%s): stall needs Delay > 0", i, f)
			}
		case KindDNSOutage:
			if r.targets.dns == nil {
				return fmt.Errorf("chaos: fault %d (%s): no DNS injector registered", i, f)
			}
		default:
			return fmt.Errorf("chaos: fault %d: unknown kind %q", i, f.Kind)
		}
	}
	return nil
}

// Apply validates s and schedules every fault (and its heal) on the
// clock, relative to now. It returns immediately; the faults fire as
// virtual time advances.
func (r *Runner) Apply(s Schedule) error {
	if err := r.Validate(s); err != nil {
		return err
	}
	for _, f := range s {
		f := f
		switch f.Kind {
		case KindLinkDown:
			link := r.targets.links[f.Target]
			r.at(f.Start, func() {
				r.activated()
				r.emit("chaos.fault.start", f)
				link.SetUp(false, true)
			})
			r.at(f.Start+f.Duration, func() {
				r.emit("chaos.fault.end", f)
				link.SetUp(true, false)
			})
		case KindLinkDegrade:
			link := r.targets.links[f.Target]
			r.at(f.Start, func() {
				r.activated()
				r.emit("chaos.fault.start", f, "factor", fmt.Sprint(f.Factor))
				link.SetCapacityFactor(f.Factor)
			})
			r.at(f.Start+f.Duration, func() {
				r.emit("chaos.fault.end", f)
				link.SetCapacityFactor(1)
			})
		case KindLinkFlap:
			link := r.targets.links[f.Target]
			// Count down/up cycles spread evenly across Duration: down
			// for the first half of each cycle, up for the second.
			cycle := f.Duration / time.Duration(f.Count)
			for c := 0; c < f.Count; c++ {
				c := c
				down := f.Start + time.Duration(c)*cycle
				r.at(down, func() {
					r.activated()
					r.emit("chaos.fault.start", f, "cycle", fmt.Sprint(c+1))
					link.SetUp(false, true)
				})
				r.at(down+cycle/2, func() {
					r.emit("chaos.fault.end", f, "cycle", fmt.Sprint(c+1))
					link.SetUp(true, false)
				})
			}
		case KindLossBurst:
			link := r.targets.links[f.Target]
			// prior is written by the start callback and read by the end
			// callback; clock callbacks may run on different goroutines,
			// so share it under the runner mutex.
			prior := new(float64)
			r.at(f.Start, func() {
				r.mu.Lock()
				*prior = link.LossRate()
				r.mu.Unlock()
				r.activated()
				r.emit("chaos.fault.start", f, "loss", fmt.Sprint(f.Factor))
				link.SetLossRate(f.Factor)
			})
			r.at(f.Start+f.Duration, func() {
				r.emit("chaos.fault.end", f)
				r.mu.Lock()
				p := *prior
				r.mu.Unlock()
				link.SetLossRate(p)
			})
		case KindHostCrash:
			host := r.targets.hosts[f.Target]
			r.at(f.Start, func() {
				r.activated()
				r.emit("chaos.fault.start", f)
				host.SetDown(true)
			})
			r.at(f.Start+f.Duration, func() {
				r.emit("chaos.fault.end", f)
				host.SetDown(false)
			})
		case KindCtrlReset:
			host := r.targets.hosts[f.Target]
			r.at(f.Start, func() {
				r.activated()
				n := host.ResetConns(string(f.Kind))
				r.emit("chaos.fault.start", f, "conns", fmt.Sprint(n))
				r.emit("chaos.fault.end", f)
			})
		case KindHRMStall:
			st := r.targets.stagers[f.Target]
			r.at(f.Start, func() {
				r.activated()
				r.emit("chaos.fault.start", f, "delay", f.Delay.String())
				st.SetStageDelay(f.Delay)
			})
			r.at(f.Start+f.Duration, func() {
				r.emit("chaos.fault.end", f)
				st.SetStageDelay(0)
			})
		case KindHRMError:
			st := r.targets.stagers[f.Target]
			r.at(f.Start, func() {
				r.activated()
				r.emit("chaos.fault.start", f)
				st.SetStageError(ErrStagingFault)
			})
			r.at(f.Start+f.Duration, func() {
				r.emit("chaos.fault.end", f)
				st.SetStageError(nil)
			})
		case KindDNSOutage:
			dns := r.targets.dns
			r.at(f.Start, func() {
				r.activated()
				r.emit("chaos.fault.start", f)
				dns.SetDNS(false)
			})
			r.at(f.Start+f.Duration, func() {
				r.emit("chaos.fault.end", f)
				dns.SetDNS(true)
			})
		}
	}
	return nil
}

func (r *Runner) at(d time.Duration, fn func()) {
	vtime.AfterFuncTagged(r.clk, siteFault, d, fn)
}
