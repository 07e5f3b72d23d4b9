package main

// metricDef mirrors one entry of BENCHMARK.json; a test keeps the two
// in step. bound is 0 for per-layer metrics, which are never gated.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd is what a user of the program sees, the same five on every
// workload. Each is the median over the timed ops of one run except
// max_rss_mb (the process's peak) and setup_s (the median of the
// run's set-ups). The bounds are sized to the host the benchmark was
// built on (README.md, "What the host does to the numbers"): ten runs
// on ten seeds spread by up to 15 % of the median on op_wall_ms and
// op_cpu_ms, 4 % on max_rss_mb and 0.7 % on op_allocs.
var endToEnd = []metricDef{
	{"op_wall_ms", "ms", "lower", 0.25},
	{"op_cpu_ms", "ms", "lower", 0.25},
	{"op_allocs", "count", "lower", 0.05},
	{"max_rss_mb", "MB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer names the layer metrics of the traced pass. A metric whose
// layer a workload does not drive reads 0 there.
var perLayer = []metricDef{
	// internal/vtime: the event core and goroutine hand-off.
	{"vtime.core_events", "count", "lower", 0},
	{"vtime.ns_per_core_event", "ns", "lower", 0},
	{"vtime.event_ns", "ns", "lower", 0},
	{"vtime.handoff_ns", "ns", "lower", 0},
	{"vtime.cohort_wake_ns", "ns", "lower", 0},
	{"vtime.multicore_slowdown_pct", "%", "lower", 0},
	{"vtime.divergent_ops", "count", "lower", 0},
	// internal/simnet: the max-min allocator and the virtual data path.
	{"simnet.alloc_passes", "count", "lower", 0},
	{"simnet.flows_visited", "count", "lower", 0},
	{"simnet.flows_per_pass", "count", "lower", 0},
	{"simnet.data_records", "count", "lower", 0},
	{"simnet.flush_ns_per_flow", "ns", "lower", 0},
	{"simnet.virtual_block_ns", "ns", "lower", 0},
	// internal/gridftp: client calls, as spans around them.
	{"gridftp.dial_ms", "ms", "lower", 0},
	{"gridftp.size_ms", "ms", "lower", 0},
	{"gridftp.get_ms", "ms", "lower", 0},
	{"gridftp.put_ms", "ms", "lower", 0},
	{"gridftp.complete_ms", "ms", "lower", 0},
	{"gridftp.close_ms", "ms", "lower", 0},
	{"gridftp.transfer_self_ms", "ms", "lower", 0},
	{"gridftp.blocks", "count", "lower", 0},
	// gridftp.DirStore, through decorated Source/Sink/FileStore.
	{"dirstore.send_busy_ms", "ms", "lower", 0},
	{"dirstore.recv_busy_ms", "ms", "lower", 0},
	{"dirstore.stream_wait_ms", "ms", "lower", 0},
	{"dirstore.open_ms", "ms", "lower", 0},
	{"dirstore.create_ms", "ms", "lower", 0},
	// internal/transport, through a decorated Network.
	{"transport.dials", "count", "lower", 0},
	{"transport.accepts", "count", "lower", 0},
	{"transport.bytes_read", "count", "lower", 0},
	{"transport.bytes_written", "count", "lower", 0},
	{"transport.conn_setup_us", "us", "lower", 0},
	// internal/gsi probes.
	{"gsi.handshake_us", "us", "lower", 0},
	{"gsi.verify_us", "us", "lower", 0},
	// internal/netlogger and internal/flight probes.
	{"netlogger.emit_ns", "ns", "lower", 0},
	{"netlogger.hist_observe_ns", "ns", "lower", 0},
	{"flight.record_ns", "ns", "lower", 0},
	// The Go runtime, per traced op.
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"runtime.alloc_mb", "MB", "lower", 0},
	// The tracer itself.
	{"trace.coverage_pct", "%", "higher", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}
