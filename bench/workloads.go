package main

// runConfig is what one run hands to its workload.
type runConfig struct {
	seed    int64
	scratch string  // directory for DirStore roots
	smoke   bool    // tiny inputs: the tests' API-drift check, not a measurement
	tr      *tracer // nil on the gated pass
}

// fixture is a workload after set-up.
type fixture interface {
	// op runs one closed-loop op; the caller times it.
	op(i int) error
	// check verifies op i's output outside the timer.
	check(i int) error
	// layers returns the exact per-layer counts of the last op, if the
	// program reports any.
	layers() map[string]float64
	close()
}

// workload is one row of BENCHMARK.json's workloads plus how to run it.
// Every workload is closed loop with one client: the next op is issued
// when the previous one completes.
type workload struct {
	name, why string
	// A gated run sets up `setups` times — fixtures plus `warmup` ops —
	// and reports the median as setup_s; the last set-up's fixture
	// serves the timed ops. The warm-up counts are sized so that one
	// set-up takes about a second and warm-up ops are most of it; the
	// bulk tcp workloads stop at two ops, 0.45 s, because the third
	// 256 MiB file written after a set-up is often a second late on
	// the virtual disk.
	setups, warmup int
	// procs is the GOMAXPROCS of the gated pass; 0 keeps the machine's
	// default.
	procs int
	// gcEvery: runtime.GC() runs outside the timer before every
	// gcEvery-th op, so ops start from the same heap.
	gcEvery int
	// checkEvery: every checkEvery-th timed op is verified by
	// fixture.check, as every warm-up op is.
	checkEvery int
	// decorated: the fixture takes the tracer's decorators (the tcp
	// workloads; a sim op builds its own grid and takes none).
	decorated bool
	// probes are the micro-probes the traced pass runs for this
	// workload: the layers its ops execute.
	probes []probe
	open   func(runConfig) (fixture, error)
}

// workloads returns the six workloads in their fixed order.
func workloads() []workload {
	return []workload{
		simWorkload(workload{
			name:   "sim-table1",
			why:    "Table 1's 8x4 streams for 3 simulated minutes at steady loss: one 32-stream lossy component, so the simnet allocator and flush order dominate",
			setups: 5, warmup: 1, gcEvery: 1, probes: simProbes,
		}, runTable1),
		simWorkload(workload{
			name:   "sim-figure8",
			why:    "Figure 8, 2 simulated hours: few flows, many timers, faults and restarts, so the vtime event core dominates",
			setups: 5, warmup: 5, gcEvery: 1, probes: simProbes,
		}, runFigure8),
		simWorkload(workload{
			name:   "sim-scale1k",
			why:    "S11 at 1024 clients on 128 small components: goroutine hand-off, cohort wake-ups and GC pressure dominate",
			setups: 5, warmup: 4, gcEvery: 1, probes: simProbes,
		}, runScale1k),
		{
			name:   "tcp-get",
			why:    "256 MiB GET over loopback, MODE E, GSI, 2 cached streams, DirStore both ends: the real data path, read direction, no simulator",
			setups: 5, warmup: 2, gcEvery: 1, checkEvery: 4, decorated: true, probes: tcpProbes,
			open: openTCPGet,
		},
		{
			name:   "tcp-put",
			why:    "256 MiB PUT on the same session shape: the same layers in the write direction, so a GET gain bought at PUT's cost shows",
			setups: 5, warmup: 2, gcEvery: 1, checkEvery: 4, decorated: true, probes: tcpProbes,
			open: openTCPPut,
		},
		{
			name:   "tcp-sessions",
			why:    "dial, GSI handshake, SIZE, 1 MiB GET, close, per op: connection and authentication set-up dominate and the block path is idle",
			setups: 5, warmup: 300, gcEvery: 500, checkEvery: 1, decorated: true, probes: tcpProbes,
			open: openTCPSessions,
		},
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
