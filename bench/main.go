// Command esgperf is the repository's benchmark: six closed-loop
// workloads — three on the virtual-time simulator, three on the real
// TCP GridFTP path over loopback — measured end to end (gated pass) and
// layer by layer (traced pass). It drives the program only through the
// exported functions of its packages. See README.md in this directory.
//
// One run measures one workload in one process:
//
//	esgperf --workload tcp-get --seed 1 --seconds 12 --trace 0
//
// and prints a report followed, as the last line of standard output, by
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (see -list); empty runs all six, one process each")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 12, "length of the timed section of a run")
		trace   = flag.Int("trace", 0, "0: gated pass, end-to-end metrics; 1: traced pass, per-layer metrics")
		aa      = flag.Int("aa", 0, "run the suite 2×N times as alternating A/B sets of this binary and compare the sets")
		list    = flag.Bool("list", false, "list the workloads and exit")
		scratch = flag.String("scratch", filepath.Join(".bench_build", "tmp"), "directory for the tcp workloads' DirStore roots")
		outDir  = flag.String("out", filepath.Join("bench", "out"), "directory for traces and result files")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	suite := suiteOptions{seed: *seed, seconds: *seconds, trace: *trace, scratch: *scratch, outDir: *outDir}
	switch {
	case *list:
		for _, w := range workloads() {
			fmt.Printf("%-13s %s\n", w.name, w.why)
		}
	case *aa > 0:
		agree, err := runAA(suite, *aa)
		if err != nil {
			fatal(err)
		}
		if !agree {
			os.Exit(1)
		}
	case *name == "":
		if _, err := runSuite(suite, os.Stdout); err != nil {
			fatal(err)
		}
	default:
		w, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q (see -list)", *name))
		}
		cfg := runConfig{seed: *seed, scratch: *scratch}
		opt := runOptions{seconds: *seconds, minOps: 3, outDir: *outDir}
		run := runGated
		if *trace != 0 {
			run = runTraced
		}
		res, err := run(w, cfg, opt)
		if err != nil {
			fatal(err)
		}
		for _, line := range res.report {
			fmt.Println(line)
		}
		fmt.Println(res.jsonLine())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "esgperf:", err)
	os.Exit(1)
}
