//go:build race

package main

// raceEnabled: the race detector randomises goroutine scheduling, so
// equal-seed runs of the simulator are not comparable under it.
const raceEnabled = true
