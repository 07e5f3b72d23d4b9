// Fixture standing in for the real internal/flight: the flight
// recorder joined the ordered-output packages in PR 7 (its dumps and
// site tables are part of the equal-seed byte-identical contract), so
// map iteration must not leak into anything it renders.
package flight

import (
	"maps"
	"slices"
)

// Site aggregation the blessed way: the names in sorted order.
func siteCountsSorted(fires map[string]int) []string {
	return slices.Sorted(maps.Keys(fires))
}

func siteCountsLeaky(fires map[string]int) []string {
	var rows []string
	for n := range fires { // want `range over map in ordered-output package`
		rows = append(rows, n)
	}
	return rows
}

func retainedTotal(rings map[string]int) int {
	total := 0
	//esglint:unordered fixture: ring-occupancy sum is order-independent
	for _, n := range rings {
		total += n
	}
	return total
}
