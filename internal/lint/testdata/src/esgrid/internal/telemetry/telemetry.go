// Fixture standing in for the real internal/telemetry: the telemetry
// plane joined the ordered-output packages in PR 9 — its grid
// snapshots and alert streams are equal-seed byte-identical at any
// tree fanout, so a fold that iterates children in map order is
// exactly the regression the contract forbids. The same fixture pins
// the package's other obligations: agents must read the injected clock
// (vtimeclock) and emit well-formed kv telemetry (emitkv).
package telemetry

import (
	"maps"
	"slices"
	"time"

	"esgrid/internal/netlogger"
)

// foldSorted is the blessed tree fold: children folded in sorted-name
// order.
func foldSorted(children map[string]int64) int64 {
	var sum int64
	for _, name := range slices.Sorted(maps.Keys(children)) {
		sum += children[name]
	}
	return sum
}

// foldMapOrder is the child-iteration regression: folding pending child
// frames in map order makes the uplink frame's encoding depend on hash
// seeds, breaking cross-fanout byte identity.
func foldMapOrder(pending map[string]int64) []string {
	var order []string
	for child := range pending { // want `range over map in ordered-output package`
		order = append(order, child)
	}
	return order
}

func trafficTotal(tiers map[string]int64) int64 {
	var total int64
	//esglint:unordered fixture: per-tier byte sum is order-independent
	for _, b := range tiers {
		total += b
	}
	return total
}

// tickBoundaryWallClock is the agent-pacing regression: a leaf that
// sleeps on the wall clock instead of the injected vtime.Clock breaks
// the simulation's determinism.
func tickBoundaryWallClock() time.Time {
	time.Sleep(time.Second) // want `time\.Sleep reads the wall clock`
	return time.Now()       // want `time\.Now reads the wall clock`
}

func tickSpan(d time.Duration) time.Duration {
	// Pure duration arithmetic is fine; only clock reads are flagged.
	return d * 2
}

// emitFrame exercises the kv surface a telemetry agent logs through.
func emitFrame(l *netlogger.Log, tier string, frames int64) {
	l.Emit("grid", "telemetry.fold", "tier", tier)
	l.Emit("grid", "telemetry.fold", "tier") // want `odd number of kv arguments \(1\)`
}
