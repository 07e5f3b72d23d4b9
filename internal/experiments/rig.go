package experiments

import (
	"fmt"
	"time"

	"esgrid/internal/chaos"
	"esgrid/internal/flight"
	"esgrid/internal/grid"
	"esgrid/internal/gridftp"
	"esgrid/internal/hrm"
	"esgrid/internal/ldapd"
	"esgrid/internal/netlogger"
	"esgrid/internal/replica"
	"esgrid/internal/rm"
	"esgrid/internal/simnet"
)

// rig is an experiment's grid plus the observers the run asked for.
type rig struct {
	*grid.Grid

	rec     *flight.Recorder // set by withFlight
	log     *netlogger.Log   // log, tracer and metrics are set by withLog
	tracer  *netlogger.Tracer
	metrics *netlogger.Registry
}

// flightDisabled turns off the always-on recorder for the
// pure-observer test, which proves an instrumented run and a bare run
// of the same seed produce byte-identical event streams. Never set
// outside tests.
var flightDisabled bool

// rigBuilt, when set, is handed every rig newRig builds, so a test can
// read the counters of the run's network afterwards. Never set outside
// tests.
var rigBuilt func(*rig)

// withFlight gives the run an always-on flight recorder: core events via
// the clock tap, connection transitions and allocator passes via the
// simnet hook. It records only into preallocated rings, so it cannot
// perturb the event stream (TestChaosFlightPureObserver pins this).
func withFlight(g *rig) {
	g.rec = flight.New(0, 0)
	if !flightDisabled {
		g.rec.AttachCore(g.Clock)
		g.Net.AttachFlight(g.rec)
	}
}

// withLog instruments the network with a NetLogger event log, a tracer
// on it and a metrics registry.
func withLog(g *rig) {
	g.log = netlogger.NewLog(g.Clock)
	g.tracer = netlogger.NewTracer(g.Clock, g.log)
	g.metrics = netlogger.NewRegistry(g.Clock)
	g.Net.Instrument(g.log, g.metrics)
}

// newRig builds an empty grid on a clock seeded with seed and attaches
// observers in the order given.
func newRig(seed int64, observers ...func(*rig)) *rig {
	g := &rig{Grid: grid.New(seed)}
	for _, attach := range observers {
		attach(g)
	}
	if rigBuilt != nil {
		rigBuilt(g)
	}
	return g
}

// submitAll requests every one of names (size bytes each) as user and
// waits for the request to finish; nil means an error was latched on g.
func (g *rig) submitAll(mgr *rm.Manager, user, collection string, names []string, size int64) *rm.Request {
	reqs := make([]rm.FileRequest, len(names))
	for i, name := range names {
		reqs[i] = rm.FileRequest{Name: name, Size: size}
	}
	req, err := mgr.Submit(user, collection, reqs)
	if g.Fail(err) || g.Fail(req.Wait()) {
		return nil
	}
	return req
}

// fileNames formats the names 0..n-1 with format.
func fileNames(format string, n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf(format, i)
	}
	return names
}

// triangle is the S13–S15 replication topology: ncar (disk replica)
// and lbnl (tape-backed replica behind an HRM) both reach the anl
// destination through the isp node. Both replica sites serve the same
// real bytes, so destination hashes can be checked against the source.
type triangle struct {
	*rig
	names    []string
	size     int64
	src      *gridftp.MemStore // both replica sites' content
	dest     *gridftp.MemStore // what anl received
	tape     *hrm.HRM          // lbnl's tape staging in front of src
	dir      *ldapd.Dir
	cat      *replica.Catalog
	injector *chaos.Runner // every link, both replica hosts, the HRM and DNS
}

// newTriangle builds the topology with access links shaped like access
// (anl's at 155 Mb/s) and a destination disk of diskBps, puts files of
// fileMB MB each on both replica sites and on lbnl's tapes, and
// catalogs them as collection at each of replicas: ncar's disk or
// lbnl's staged HPSS archive.
func newTriangle(seed int64, access simnet.LinkConfig, diskBps float64, files int, fileMB int64,
	collection string, replicas ...string) (*triangle, error) {
	t := &triangle{rig: newRig(seed, withFlight, withLog), size: fileMB << 20,
		src: gridftp.NewMemStore(), dest: gridftp.NewMemStore()}
	n := t.Net
	n.AddHost("ncar", simnet.HostConfig{DefaultBufferBytes: 64 << 10})
	n.AddHost("lbnl", simnet.HostConfig{DefaultBufferBytes: 64 << 10})
	n.AddHost("anl", simnet.HostConfig{DefaultBufferBytes: 64 << 10, DiskBps: diskBps})
	n.AddNode("isp")
	lNcar := n.AddLink("ncar", "isp", access)
	lLbnl := n.AddLink("lbnl", "isp", access)
	wan := access
	wan.CapacityBps = 155e6
	lAnl := n.AddLink("isp", "anl", wan)

	t.tape = hrm.New(t.Clock, hrm.Config{
		Drives: 2, MountTime: 3 * time.Second, SeekTime: 500 * time.Millisecond,
		ReadBps: 200 << 20, CacheBytes: int64(files+1) * t.size,
	})
	t.names = fileNames("pcm-%02d.nc", files)
	for i, name := range t.names {
		t.src.Put(name, chaosContent(i, t.size))
		t.tape.AddTapeFile(hrm.TapeFile{Name: name, Size: t.size, Tape: fmt.Sprintf("T%d", i/2)})
	}
	t.dir = ldapd.NewDir()
	var err error
	if t.cat, err = replica.New(t.dir); err != nil {
		return nil, err
	}
	if err := t.cat.CreateCollection(collection, t.names); err != nil {
		return nil, err
	}
	for _, host := range replicas {
		loc := replica.Location{Host: host, Protocol: "gsiftp", Port: 2811, Path: "/d", Files: t.names}
		if host == "lbnl" {
			loc.Path, loc.Staged = "/hpss", true
		}
		if err := t.cat.AddLocation(collection, loc); err != nil {
			return nil, err
		}
	}

	targets := chaos.NewTargets().
		AddLink("ncar-isp", lNcar).
		AddLink("lbnl-isp", lLbnl).
		AddLink("isp-anl", lAnl).
		AddHost("ncar", n.Host("ncar")).
		AddHost("lbnl", n.Host("lbnl")).
		AddStager("lbnl", t.tape)
	targets.SetDNS(n)
	t.injector = chaos.NewRunner(t.Clock, t.log, targets)
	return t, nil
}

// start serves src from both replica sites over GridFTP with cfg (disk
// bound, logged) and lbnl's HRM over esgrpc on hrm.Port.
func (t *triangle) start(cfg gridftp.Config) bool {
	cfg.Store, cfg.DiskBound, cfg.Log = t.src, true, t.log
	return t.Serve("ncar", cfg) && t.Serve("lbnl", cfg) && t.ServeRPC("lbnl", fmt.Sprintf(":%d", hrm.Port), t.tape.RegisterRPC)
}

// submit starts anl's request manager, applies the fault schedule and
// requests every file of collection, returning the request and the
// instant it was submitted (nil on a latched setup error). One stream
// and one file at a time is the shape the chaos, monitor and provenance
// results are recorded at. Equal seeds replay byte for byte at more
// streams too: the Sim runs one schedule per seed (DESIGN §11).
func (t *triangle) submit(collection string, sched chaos.Schedule, maxAttempts int, backoff time.Duration) (*rm.Request, time.Time) {
	mgr, err := rm.New(rm.Config{
		Clock: t.Clock, Net: t.Net.Host("anl"), LocalHost: "anl", Replica: t.cat,
		DestStore: t.dest, Policy: rm.PolicyFirst,
		Parallelism: 1, BufferBytes: 1 << 20,
		CacheDataChannels: false,
		MaxConcurrent:     1,
		MaxAttempts:       maxAttempts,
		RetryBackoff:      backoff,
		MonitorInterval:   time.Second,
		Log:               t.log,
		Tracer:            t.tracer,
		Metrics:           t.metrics,
	})
	if t.Fail(err) || t.Fail(t.injector.Apply(sched)) {
		return nil, time.Time{}
	}
	t0 := t.Clock.Now()
	reqs := make([]rm.FileRequest, len(t.names))
	for i, name := range t.names {
		reqs[i] = rm.FileRequest{Name: name, Size: t.size}
	}
	req, err := mgr.Submit("esg-user", collection, reqs)
	if t.Fail(err) {
		return nil, t0
	}
	return req, t0
}
