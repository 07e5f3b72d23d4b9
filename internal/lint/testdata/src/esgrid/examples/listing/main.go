// Fixture standing in for an example program: its stdout is user
// output, so printing a map in iteration order reorders the listing
// from run to run.
package main

import (
	"fmt"
	"sort"
)

var variables = map[string]string{
	"tas": "near-surface air temperature (K)",
	"pr":  "precipitation rate (mm/day)",
}

func main() {
	for v, desc := range variables { // want `range over map in ordered-output package`
		fmt.Println(v, desc)
	}

	names := make([]string, 0, len(variables))
	for v := range variables {
		names = append(names, v)
	}
	sort.Strings(names)
	for _, v := range names {
		fmt.Println(v, variables[v])
	}
}
