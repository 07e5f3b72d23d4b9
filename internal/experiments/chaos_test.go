package experiments

import (
	"fmt"
	"testing"

	"esgrid/internal/chaos"
)

// soakConfig keeps each soak run small: two 8 MB files, still real
// bytes end to end so the hash invariant has teeth.
func soakConfig(seed int64) ChaosConfig {
	cfg := DefaultChaosConfig()
	cfg.Seed = seed
	cfg.Files = 2
	cfg.FileMB = 8
	return cfg
}

// TestChaosSweep runs the full S13 escalating fault sweep: RunChaos
// itself fails if any level breaks an invariant (completion, hash
// equality, bounded re-fetch, restart-marker monotonicity, retry-span
// accounting).
func TestChaosSweep(t *testing.T) {
	res, err := RunChaos(DefaultChaosConfig())
	if err != nil {
		t.Fatalf("RunChaos: %v", err)
	}
	if len(res.Levels) != 4 {
		t.Fatalf("levels = %d, want 4", len(res.Levels))
	}
	base := res.Levels[0]
	if base.Faults != 0 || base.Refetch != 0 || base.Attempts != res.Config.Files {
		t.Errorf("fault-free baseline not clean: %+v", base)
	}
	for _, lv := range res.Levels {
		if lv.GoodputBps <= 0 {
			t.Errorf("level %d faults: goodput %v", lv.Faults, lv.GoodputBps)
		}
	}
	last := res.Levels[len(res.Levels)-1]
	if last.Activations == 0 {
		t.Errorf("top sweep level injected no faults")
	}
}

// TestChaosSoak replays ≥25 randomized schedules; every run must pass
// the full invariant audit. Any failure message carries the one-line
// seed that replays the exact schedule.
func TestChaosSoak(t *testing.T) {
	const runs = 25
	const faults = 6
	kinds := map[chaos.Kind]bool{}
	for i := 0; i < runs; i++ {
		seed := int64(1000 + i)
		cfg := soakConfig(seed)
		sched := ChaosScheduleFor(cfg, seed, faults)
		for _, k := range sched.Kinds() {
			kinds[k] = true
		}
		run, err := RunChaosSchedule(cfg, sched)
		if err == nil {
			err = run.Report.Err()
		}
		if err != nil {
			t.Errorf("replay: ChaosScheduleFor(soakConfig(%d), %d, %d): %v", seed, seed, faults, err)
			if run.Flight != nil {
				dumpFlightOnFailure(t, fmt.Sprintf("soak-seed%d", seed), string(run.Flight.Dump()))
			}
		}
	}
	if len(kinds) < 4 {
		t.Errorf("soak mixed only %d fault kinds (%v), want >= 4", len(kinds), kinds)
	}
}
