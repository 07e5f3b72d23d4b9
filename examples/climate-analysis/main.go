// Climate analysis: the paper's end-to-end scientific workflow (§3).
// Query the metadata catalog for a northern-summer temperature and cloud
// field, move the data through the request manager, then analyze and
// visualize it — subsetting, zonal means, anomalies, an ASCII shade map
// (Figure 3's role) and a PGM image on disk.
//
//	go run ./examples/climate-analysis
package main

import (
	"fmt"
	"log"
	"maps"
	"os"
	"slices"

	esgrid "esgrid"
	"esgrid/internal/climate"
)

func main() {
	tb, err := esgrid.NewTestbed(esgrid.TestbedConfig{Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	tb.Run(func() {
		fmt.Println("== selecting data by application attributes (Figure 2) ==")
		vars := climate.AllVariables()
		for _, v := range slices.Sorted(maps.Keys(vars)) {
			fmt.Printf("  %-4s %s\n", v, vars[v])
		}
		req, err := tb.Fetch(esgrid.Query{
			Dataset:   "pcm-b06.44",
			Variables: []string{climate.VarTemperature},
			From:      esgrid.Month(1998, 7),
			To:        esgrid.Month(1998, 7),
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := req.Wait(); err != nil {
			log.Fatal(err)
		}
		st := req.Status()[0]
		fmt.Printf("\nfetched %s (%.1f GB) from replica %s in %v\n\n",
			st.Name, float64(st.Received)/1e9, st.Replica, tb.Clock.Elapsed())

		fmt.Println("== analysis (CDAT's role, §3) ==")
		fld, err := tb.Analyze("pcm", climate.VarTemperature, 1998, 7)
		if err != nil {
			log.Fatal(err)
		}
		stats := fld.Stats()
		fmt.Printf("global:  min %.1f K  max %.1f K  area-weighted mean %.1f K\n",
			stats.Min, stats.Max, stats.AreaMean)

		tropics, err := fld.Subset(-23.5, 23.5, 0, 360)
		if err != nil {
			log.Fatal(err)
		}
		arctic, err := fld.Subset(66.5, 90, 0, 360)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("tropics: mean %.1f K    arctic: mean %.1f K    equator-pole contrast %.1f K\n",
			tropics.Stats().Mean, arctic.Stats().Mean, tropics.Stats().Mean-arctic.Stats().Mean)

		zm := fld.ZonalMean()
		fmt.Println("\nzonal mean temperature (K) by latitude band:")
		for i := 0; i < len(zm); i += 4 {
			fmt.Printf("  lat %+6.1f  %6.1f\n", fld.Lats[i], zm[i])
		}

		fmt.Println("\n== visualization (Figure 3's role) ==")
		fmt.Println(fld.RenderASCII(96))

		out := "tas-1998-07.pgm"
		if err := os.WriteFile(out, fld.PGM(), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote grayscale image %s\n", out)
	})
}
