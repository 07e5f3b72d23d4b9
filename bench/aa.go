package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// suiteOptions are the flags a suite run passes on to each workload's
// process.
type suiteOptions struct {
	seed            int64
	seconds         float64
	trace           int
	scratch, outDir string
}

// runSuite runs the six workloads in their fixed order, each in a
// process of its own (fresh heap, its own peak RSS), and returns their
// results by workload name. Each child's output is copied to echo.
func runSuite(o suiteOptions, echo io.Writer) (map[string]*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	results := map[string]*result{}
	for _, w := range workloads() {
		cmd := exec.Command(self,
			"--workload", w.name,
			"--seed", strconv.FormatInt(o.seed, 10),
			"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
			"--trace", strconv.Itoa(o.trace),
			"--scratch", o.scratch,
			"--out", o.outDir)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output() // waits for the child to end
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		if _, err := echo.Write(out); err != nil {
			return nil, err
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		res := &result{}
		if err := json.Unmarshal(lines[len(lines)-1], res); err != nil {
			return nil, fmt.Errorf("%s: last line of output: %w", w.name, err)
		}
		results[w.name] = res
	}
	return results, nil
}

// runAA runs the suite 2×n times as two sets, A and B, of the same
// binary, alternating which goes first, and compares the sets' medians
// by mediansDisagree with each metric's own bound. It is the check
// that the benchmark's bounds are wider than the host's noise: a pair
// that disagrees here would reject an innocent change. Round r of both
// sets uses seed o.seed+r.
func runAA(o suiteOptions, n int) (agree bool, err error) {
	defs := endToEnd
	if o.trace != 0 {
		defs = perLayer
	}
	// values[side][workload][metric] holds one value per round.
	var values [2]map[string]map[string][]float64
	for side := range values {
		values[side] = map[string]map[string][]float64{}
	}
	agree = true
	for r := 0; r < n; r++ {
		round := o
		round.seed = o.seed + int64(r)
		for k := 0; k < 2; k++ {
			side := (r + k) % 2
			fmt.Printf("round %d/%d side %c seed %d\n", r+1, n, 'A'+side, round.seed)
			results, err := runSuite(round, io.Discard)
			if err != nil {
				return false, err
			}
			for _, w := range workloads() {
				res := results[w.name]
				if !res.Correct || res.Failed > 0 {
					fmt.Printf("  FAILED  %s: %d of %d ops failed\n", w.name, res.Failed, res.Attempted)
					agree = false
				}
				byMetric := values[side][w.name]
				if byMetric == nil {
					byMetric = map[string][]float64{}
					values[side][w.name] = byMetric
				}
				for _, d := range defs {
					byMetric[d.name] = append(byMetric[d.name], res.Metrics[d.name].Value)
				}
			}
		}
	}

	fmt.Printf("\n%-13s %-26s %12s %24s %12s %24s %8s %8s %6s\n",
		"workload", "metric", "A median", "A quartiles", "B median", "B quartiles", "spread", "B vs A", "bound")
	for _, w := range workloads() {
		for _, d := range defs {
			a, b := values[0][w.name][d.name], values[1][w.name][d.name]
			aq1, aq3 := quartiles(a)
			bq1, bq3 := quartiles(b)
			diff := 0.0
			if ma := median(a); ma != 0 {
				diff = median(b)/ma - 1
			}
			verdict := ""
			if d.bound > 0 && mediansDisagree(a, b, d.bound) {
				verdict = "  DISAGREE"
				agree = false
			}
			fmt.Printf("%-13s %-26s %12.4f %24s %12.4f %24s %7.1f%% %+7.1f%% %5.0f%%%s\n",
				w.name, d.name, median(a), fmt.Sprintf("[%.4f %.4f]", aq1, aq3),
				median(b), fmt.Sprintf("[%.4f %.4f]", bq1, bq3),
				100*spread(append(append([]float64(nil), a...), b...)), 100*diff, 100*d.bound, verdict)
		}
	}
	if agree {
		fmt.Println("\nA and B agree within every bound.")
	} else {
		fmt.Println("\nA and B DISAGREE: the benchmark is noisier than its bounds on this host.")
	}
	return agree, nil
}
