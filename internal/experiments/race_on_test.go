//go:build race

package experiments

// raceEnabled reports whether this test binary was built with the race
// detector (see row.runs in equalseed_test.go).
const raceEnabled = true
