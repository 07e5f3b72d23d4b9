// Command esgquery browses the ESG catalogs from the command line: the
// headless VCDAT selection pane of Figure 2. It loads a directory tree
// from an LDIF file (or builds the default synthetic testbed catalogs)
// and resolves attribute queries to logical files and their replicas.
//
// Usage:
//
//	esgquery [-ldif catalogs.ldif] datasets
//	esgquery [-ldif catalogs.ldif] files   -dataset pcm-b06.44 [-var tas] [-from 1998-01] [-to 1998-03]
//	esgquery [-ldif catalogs.ldif] replicas -collection pcm-b06.44-monthly -file pcm.tas.1998-01.nc
//	esgquery [-ldif catalogs.ldif] health   # monitor health records + NWS forecasts from MDS
//	esgquery -dump                          # write the default catalogs as LDIF to stdout
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	esgrid "esgrid"
	"esgrid/internal/ldapd"
	"esgrid/internal/mds"
	"esgrid/internal/metadata"
	"esgrid/internal/replica"
)

func main() {
	ldifPath := flag.String("ldif", "", "load catalogs from this LDIF file (default: synthetic testbed)")
	dataset := flag.String("dataset", "", "dataset name for 'files'")
	variable := flag.String("var", "", "variable filter for 'files'")
	from := flag.String("from", "", "start month YYYY-MM")
	to := flag.String("to", "", "end month YYYY-MM")
	collection := flag.String("collection", "", "collection for 'replicas'")
	file := flag.String("file", "", "logical file for 'replicas'")
	dump := flag.Bool("dump", false, "dump the catalogs as LDIF and exit")
	// Accept "esgquery <verb> -flags..." (flags after the subcommand).
	args := os.Args[1:]
	verb := ""
	if len(args) > 0 && args[0] != "" && args[0][0] != '-' {
		verb, args = args[0], args[1:]
	}
	if err := flag.CommandLine.Parse(args); err != nil {
		os.Exit(2)
	}
	if verb == "" {
		verb = flag.Arg(0)
	}

	dir := buildDir(*ldifPath)
	if *dump {
		if err := dir.DumpLDIF(os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	meta, err := metadata.New(dir)
	if err != nil {
		log.Fatal(err)
	}
	cat, err := replica.New(dir)
	if err != nil {
		log.Fatal(err)
	}

	switch verb {
	case "datasets":
		dss, err := meta.Datasets()
		if err != nil {
			log.Fatal(err)
		}
		for _, ds := range dss {
			fmt.Printf("%-16s model=%-6s %s..%s vars=%v\n  %s\n",
				ds.Name, ds.Model, ds.From.Format("2006-01"), ds.To.Format("2006-01"),
				ds.Variables, ds.Comment)
		}
	case "files":
		if *dataset == "" {
			log.Fatal("esgquery: files needs -dataset")
		}
		q := metadata.Query{Dataset: *dataset}
		if *variable != "" {
			q.Variables = []string{*variable}
		}
		if *from != "" {
			q.From = parseMonth(*from)
		}
		if *to != "" {
			q.To = parseMonth(*to)
		}
		coll, files, err := meta.Resolve(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("collection: %s\n", coll)
		for _, f := range files {
			fmt.Printf("  %-24s %-4s %04d-%02d %10.2f GB\n", f.Name, f.Variable, f.Year, f.Month, float64(f.Size)/1e9)
		}
	case "replicas":
		if *collection == "" || *file == "" {
			log.Fatal("esgquery: replicas needs -collection and -file")
		}
		locs, err := cat.LocationsFor(*collection, *file)
		if err != nil {
			log.Fatal(err)
		}
		for _, l := range locs {
			staged := ""
			if l.Staged {
				staged = "  [mass storage: staging required]"
			}
			fmt.Printf("  %s%s\n", l.URL(*file), staged)
		}
	case "health":
		if err := printHealth(dir); err != nil {
			log.Fatal(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: esgquery [flags] datasets|files|replicas|health  (see -h)")
		os.Exit(2)
	}
}

// printHealth renders the monitor's MDS publications — the operations
// view of host and path health.
func printHealth(dir *ldapd.Dir) error {
	info, err := mds.New(dir)
	if err != nil {
		return err
	}
	hosts, err := info.HostHealths()
	if err != nil {
		return err
	}
	fmt.Println("HOST HEALTH")
	if len(hosts) == 0 {
		fmt.Println("  (no records: run a monitored grid against this directory)")
	} else {
		fmt.Printf("  %-16s %-9s %12s %7s %7s  %s\n", "host", "status", "goodput", "active", "alerts", "updated")
		for _, h := range hosts {
			fmt.Printf("  %-16s %-9s %10.1fMb %7d %7d  %s\n",
				h.Host, h.Status, h.GoodputBps/1e6, h.ActiveTransfers, h.Alerts,
				h.Updated.UTC().Format(time.RFC3339))
		}
	}
	paths, err := info.PathHealths()
	if err != nil {
		return err
	}
	fmt.Println("\nPATH HEALTH")
	if len(paths) == 0 {
		fmt.Println("  (no records)")
	} else {
		fmt.Printf("  %-24s %-9s %12s %12s  %s\n", "path", "status", "observed", "forecast", "updated")
		for _, p := range paths {
			fmt.Printf("  %-24s %-9s %10.1fMb %10.1fMb  %s\n",
				p.From+"->"+p.To, p.Status, p.ObservedBps/1e6, p.ForecastBps/1e6,
				p.Updated.UTC().Format(time.RFC3339))
		}
	}
	fcs, err := info.AllForecasts()
	if err != nil {
		return err
	}
	fmt.Println("\nNWS FORECASTS")
	if len(fcs) == 0 {
		fmt.Println("  (no records)")
	} else {
		fmt.Printf("  %-24s %12s %10s %10s  %s\n", "path", "bandwidth", "latency", "err", "measured")
		for _, f := range fcs {
			fmt.Printf("  %-24s %10.1fMb %10s %8.1fMb  %s\n",
				f.From+"->"+f.To, f.BandwidthBps/1e6, f.Latency, f.ErrBps/1e6,
				f.Measured.UTC().Format(time.RFC3339))
		}
	}
	return nil
}

// buildDir loads an LDIF tree or synthesizes the default testbed's
// catalogs in memory.
func buildDir(ldifPath string) *ldapd.Dir {
	dir := ldapd.NewDir()
	if ldifPath != "" {
		f, err := os.Open(ldifPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := dir.LoadLDIF(f); err != nil {
			log.Fatal(err)
		}
		return dir
	}
	// Reuse the standard testbed's registration logic by building one and
	// dumping/reloading its directory is circuitous; instead register the
	// default dataset directly.
	tb, err := esgrid.NewTestbed(esgrid.TestbedConfig{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tb.Dir().DumpLDIF(&buf); err != nil {
		log.Fatal(err)
	}
	if err := dir.LoadLDIF(&buf); err != nil {
		log.Fatal(err)
	}
	return dir
}

func parseMonth(s string) time.Time {
	t, err := time.Parse("2006-01", s)
	if err != nil {
		log.Fatalf("esgquery: bad month %q (want YYYY-MM)", s)
	}
	return t
}
