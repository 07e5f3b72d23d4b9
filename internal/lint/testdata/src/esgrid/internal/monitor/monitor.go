// Fixture standing in for the real internal/monitor: one of the
// ordered-output packages where map iteration must not leak into
// emitted state.
package monitor

import (
	"maps"
	"slices"
	"strconv"
)

// Ranging over the sorted keys is the blessed form: fold in canonical
// order.
func emitSorted(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for _, k := range slices.Sorted(maps.Keys(m)) {
		out = append(out, k+"="+strconv.Itoa(m[k]))
	}
	return out
}

func emitUnsorted(m map[string]int) string {
	s := ""
	for k, v := range m { // want `range over map in ordered-output package`
		s += k + strconv.Itoa(v)
	}
	return s
}

// Gathering keys without sorting them afterwards is still a leak.
func gatherNoSort(m map[string]int) []string {
	var keys []string
	for k := range m { // want `range over map in ordered-output package`
		keys = append(keys, k)
	}
	return keys
}

// A hand-written gather-then-sort loop ends in canonical order, but the
// analyzer does not recognise it: slices.Sorted(maps.Keys(m)) says the
// same in one expression.
func gatherThenSort(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m { // want `range over map in ordered-output package`
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// The maps iterators walk in the map's own hash order.
func iterKeys(m map[string]int) []string {
	var keys []string
	for k := range maps.Keys(m) { // want `range over map in ordered-output package`
		keys = append(keys, k)
	}
	return keys
}

func iterValues(m map[string]int) string {
	s := ""
	for v := range maps.Values(m) { // want `range over map in ordered-output package`
		s += strconv.Itoa(v)
	}
	return s
}

func iterAll(m map[string]int) string {
	s := ""
	for k, v := range maps.All(m) { // want `range over map in ordered-output package`
		s += k + strconv.Itoa(v)
	}
	return s
}

// A bare range only counts; order cannot leak.
func counting(m map[string]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}

func escaped(m map[string]int) int {
	sum := 0
	//esglint:unordered fixture: integer sum is order-independent
	for _, v := range m {
		sum += v
	}
	return sum
}

func missingReason(m map[string]int) {
	//esglint:unordered // want `esglint:unordered annotation requires a reason`
	for k := range m { // want `range over map in ordered-output package`
		_ = k
	}
}

// Slices are ordered; only maps are flagged.
func sliceRange(s []string) string {
	out := ""
	for _, v := range s {
		out += v
	}
	return out
}
