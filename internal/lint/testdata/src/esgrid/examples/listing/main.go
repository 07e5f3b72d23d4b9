// Fixture standing in for an example program: its stdout is user
// output, so printing a map in iteration order reorders the listing
// from run to run.
package main

import (
	"fmt"
	"maps"
	"slices"
)

var variables = map[string]string{
	"tas": "near-surface air temperature (K)",
	"pr":  "precipitation rate (mm/day)",
}

func main() {
	for v, desc := range variables { // want `range over map in ordered-output package`
		fmt.Println(v, desc)
	}

	for _, v := range slices.Sorted(maps.Keys(variables)) {
		fmt.Println(v, variables[v])
	}
}
