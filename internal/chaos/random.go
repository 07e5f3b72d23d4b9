package chaos

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"time"
)

// RandomConfig bounds a generated schedule.
type RandomConfig struct {
	// Horizon is the expected experiment length; fault start times fall
	// in [0.05, 0.75]·Horizon so every fault lands while transfers are
	// plausibly still running and heals before retry budgets drain.
	Horizon time.Duration
	// Faults is how many faults to draw.
	Faults int
	// Links, Hosts, Stagers name the eligible targets; empty slices
	// remove those fault kinds from the draw.
	Links   []string
	Hosts   []string
	Stagers []string
	// DNS enables dns.outage faults.
	DNS bool
	// MaxOutage caps any single fault's duration; it should stay well
	// under the victims' retry budget or completion is not recoverable.
	MaxOutage time.Duration
}

// RandomSchedule draws a reproducible schedule from seed: equal seeds
// and configs yield identical schedules, so a failing soak run is
// replayed from the one-line seed in its failure message.
func RandomSchedule(seed int64, cfg RandomConfig) Schedule {
	if cfg.Horizon <= 0 {
		cfg.Horizon = 10 * time.Minute
	}
	if cfg.MaxOutage <= 0 || cfg.MaxOutage > cfg.Horizon {
		cfg.MaxOutage = cfg.Horizon / 20
	}
	rng := rand.New(rand.NewSource(seed))

	var kinds []Kind
	if len(cfg.Links) > 0 {
		kinds = append(kinds, KindLinkDown, KindLinkDegrade, KindLinkFlap, KindLossBurst)
	}
	if len(cfg.Hosts) > 0 {
		kinds = append(kinds, KindHostCrash, KindCtrlReset)
	}
	if len(cfg.Stagers) > 0 {
		kinds = append(kinds, KindHRMStall, KindHRMError)
	}
	if cfg.DNS {
		kinds = append(kinds, KindDNSOutage)
	}
	if len(kinds) == 0 || cfg.Faults <= 0 {
		return nil
	}

	dur := func() time.Duration {
		// At least a second so the fault is observable; uniform up to
		// the cap.
		return time.Second + time.Duration(rng.Float64()*float64(cfg.MaxOutage-time.Second))
	}
	pick := func(names []string) string { return names[rng.Intn(len(names))] }

	s := make(Schedule, 0, cfg.Faults)
	for i := 0; i < cfg.Faults; i++ {
		f := Fault{
			Kind:  kinds[rng.Intn(len(kinds))],
			Start: time.Duration((0.05 + 0.70*rng.Float64()) * float64(cfg.Horizon)),
		}
		switch f.Kind {
		case KindLinkDown:
			f.Target, f.Duration = pick(cfg.Links), dur()
		case KindLinkDegrade:
			f.Target, f.Duration = pick(cfg.Links), dur()
			f.Factor = 0.05 + 0.25*rng.Float64()
		case KindLinkFlap:
			f.Target, f.Duration = pick(cfg.Links), dur()
			f.Count = 2 + rng.Intn(3)
		case KindLossBurst:
			f.Target, f.Duration = pick(cfg.Links), dur()
			f.Factor = 0.02 + 0.08*rng.Float64()
		case KindHostCrash:
			f.Target, f.Duration = pick(cfg.Hosts), dur()
		case KindCtrlReset:
			f.Target = pick(cfg.Hosts)
		case KindHRMStall:
			f.Target, f.Duration = pick(cfg.Stagers), dur()
			f.Delay = 5*time.Second + time.Duration(rng.Float64()*float64(20*time.Second))
		case KindHRMError:
			f.Target, f.Duration = pick(cfg.Stagers), dur()
		case KindDNSOutage:
			f.Duration = dur()
		}
		s = append(s, f)
	}
	// Sort by start (then kind/target) so the schedule reads like a
	// timeline and application order never depends on draw order.
	sort.SliceStable(s, func(i, j int) bool {
		if s[i].Start != s[j].Start {
			return s[i].Start < s[j].Start
		}
		return fmt.Sprint(s[i]) < fmt.Sprint(s[j])
	})
	return s
}

// Kinds returns the distinct fault kinds in s, sorted.
func (s Schedule) Kinds() []Kind {
	set := map[Kind]bool{}
	for _, f := range s {
		set[f.Kind] = true
	}
	return slices.Sorted(maps.Keys(set))
}
