//go:build race

package experiments

// raceEnabled reports whether this test binary was built with the race
// detector, whose allocations TestSessionAllocBudget must not count.
const raceEnabled = true
