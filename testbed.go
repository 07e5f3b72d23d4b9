package esgrid

import (
	"fmt"
	"time"

	"esgrid/internal/analysis"
	"esgrid/internal/climate"
	"esgrid/internal/grid"
	"esgrid/internal/gridftp"
	"esgrid/internal/gsi"
	"esgrid/internal/hrm"
	"esgrid/internal/ldapd"
	"esgrid/internal/mds"
	"esgrid/internal/metadata"
	"esgrid/internal/netlogger"
	"esgrid/internal/nws"
	"esgrid/internal/replica"
	"esgrid/internal/replicate"
	"esgrid/internal/rm"
	"esgrid/internal/simnet"
	"esgrid/internal/vtime"
)

// Site describes one testbed site's connectivity (its access link to the
// wide-area backbone).
type Site struct {
	Name        string
	CapacityBps float64
	Delay       time.Duration // one-way to the backbone
	LossRate    float64
	// HRM marks the site's storage as tape-archived behind a
	// hierarchical resource manager (LBNL's HPSS in the prototype).
	HRM bool
}

// Figure1Sites is the ESG-I demonstration testbed of Figure 1: data at
// ANL, LBNL (PDSF behind HPSS), NCAR, SDSC and ISI, with the user at
// LLNL. Rates and delays are representative of the year-2000 ESnet/NTON
// connectivity of Figure 7.
func Figure1Sites() []Site {
	return []Site{
		{Name: "anl", CapacityBps: 622e6, Delay: 24 * time.Millisecond},
		{Name: "lbnl-pdsf", CapacityBps: 622e6, Delay: 3 * time.Millisecond, HRM: true},
		{Name: "lbnl-clipper", CapacityBps: 622e6, Delay: 3 * time.Millisecond},
		{Name: "ncar", CapacityBps: 155e6, Delay: 17 * time.Millisecond},
		{Name: "sdsc", CapacityBps: 622e6, Delay: 7 * time.Millisecond},
		{Name: "isi", CapacityBps: 155e6, Delay: 8 * time.Millisecond},
	}
}

// DatasetSpec declares one synthetic dataset and where its replicas live.
type DatasetSpec struct {
	Name      string
	Model     string
	Variables []string
	From, To  time.Time
	// Sites holding a complete replica; nil = all testbed sites.
	ReplicaSites []string
}

// DefaultDataset is the two-year PCM run used by the examples.
func DefaultDataset() DatasetSpec {
	return DatasetSpec{
		Name:      "pcm-b06.44",
		Model:     "pcm",
		Variables: []string{climate.VarTemperature, climate.VarPrecipitation, climate.VarCloudCover},
		From:      Month(1998, 1),
		To:        Month(1999, 12),
	}
}

// TestbedConfig parameterizes NewTestbed. The zero value plus a Seed is a
// working Figure 1 testbed with the default dataset.
type TestbedConfig struct {
	// Seed makes the run reproducible.
	Seed int64
	// Sites overrides Figure1Sites().
	Sites []Site
	// ClientSite names the user's location ("llnl" by default).
	ClientSite string
	// ClientCapacityBps and ClientDelay describe the user's access link.
	ClientCapacityBps float64
	ClientDelay       time.Duration
	// Datasets to register; nil = DefaultDataset().
	Datasets []DatasetSpec
	// Security: when true, a CA is created, every service gets an
	// identity, and GridFTP/RPC sessions authenticate; HandshakeCost
	// models the public-key CPU time per handshake side.
	Security      bool
	HandshakeCost time.Duration
	// Transfer tuning.
	Parallelism       int
	BufferBytes       int
	CacheDataChannels bool
	Policy            Policy
	MinRateBps        float64
	MaxConcurrent     int
	// NWSPeriod is the sensor cadence (default 30s).
	NWSPeriod time.Duration
	// ActiveProbes makes NWS measure with real probe transfers between
	// hosts (Wolski-style sensors, including their slow-start bias on
	// fast paths) instead of the simulator's oracle estimate.
	ActiveProbes bool
}

// Testbed is a fully wired in-process ESG deployment on a simulated WAN.
type Testbed struct {
	Clock   *vtime.Sim
	Net     *simnet.Net
	Log     *netlogger.Log
	Meta    *metadata.Catalog
	Replica *replica.Catalog
	Info    *mds.Service
	RM      *rm.Manager
	Sensor  *nws.Sensor
	HRMs    map[string]*hrm.HRM
	Stores  map[string]*gridftp.VirtualStore
	CA      *gsi.CA

	cfg      TestbedConfig
	sites    []Site
	grid     *grid.Grid
	client   *simnet.Host
	started  bool
	userAuth *gsi.Config
	dir      *ldapd.Dir
}

// NewTestbed builds the topology and catalogs. Servers start when Run is
// called (they need the simulation scheduler).
func NewTestbed(cfg TestbedConfig) (*Testbed, error) {
	if cfg.Sites == nil {
		cfg.Sites = Figure1Sites()
	}
	if cfg.ClientSite == "" {
		cfg.ClientSite = "llnl"
	}
	if cfg.ClientCapacityBps == 0 {
		cfg.ClientCapacityBps = 622e6
	}
	if cfg.ClientDelay == 0 {
		cfg.ClientDelay = 2 * time.Millisecond
	}
	if cfg.Datasets == nil {
		cfg.Datasets = []DatasetSpec{DefaultDataset()}
	}
	if cfg.Parallelism == 0 {
		cfg.Parallelism = 4
	}
	if cfg.BufferBytes == 0 {
		cfg.BufferBytes = 1 << 20
	}
	if cfg.NWSPeriod == 0 {
		cfg.NWSPeriod = 30 * time.Second
	}

	g := grid.New(cfg.Seed)
	clk, n := g.Clock, g.Net
	tb := &Testbed{
		Clock:  clk,
		Net:    n,
		Log:    netlogger.NewLog(clk),
		HRMs:   map[string]*hrm.HRM{},
		Stores: map[string]*gridftp.VirtualStore{},
		cfg:    cfg,
		sites:  cfg.Sites,
		grid:   g,
	}

	// Topology: star over a wide-area backbone (Figure 7 simplified).
	n.AddNode("wan")
	for _, s := range cfg.Sites {
		n.AddHost(s.Name, simnet.HostConfig{DefaultBufferBytes: cfg.BufferBytes})
		n.AddLink(s.Name, "wan", simnet.LinkConfig{CapacityBps: s.CapacityBps, Delay: s.Delay, LossRate: s.LossRate})
	}
	tb.client = n.AddHost(cfg.ClientSite, simnet.HostConfig{DefaultBufferBytes: cfg.BufferBytes})
	n.AddLink(cfg.ClientSite, "wan", simnet.LinkConfig{CapacityBps: cfg.ClientCapacityBps, Delay: cfg.ClientDelay})

	// Catalogs live in one directory (the prototype ran them on LDAP
	// servers at ANL; here the directory is in-process and served over
	// no wire).
	dir := ldapd.NewDir()
	tb.dir = dir
	var err error
	if tb.Meta, err = metadata.New(dir); err != nil {
		return nil, err
	}
	if tb.Replica, err = replica.New(dir); err != nil {
		return nil, err
	}
	if tb.Info, err = mds.New(dir); err != nil {
		return nil, err
	}

	// Security.
	var rmAuth *gsi.Config
	if cfg.Security {
		ca, err := gsi.NewCA("ESG-CA")
		if err != nil {
			return nil, err
		}
		tb.CA = ca
		trust := gsi.NewTrustStore(ca)
		user, err := ca.Issue("/O=ESG/CN=climate-scientist", vtime.Epoch, 30*24*time.Hour)
		if err != nil {
			return nil, err
		}
		tb.userAuth = &gsi.Config{Identity: user, Trust: trust, Clock: clk, HandshakeCost: cfg.HandshakeCost}
		rmAuth = tb.userAuth
	}

	// Datasets: register metadata, replica locations and file stores.
	for _, ds := range cfg.Datasets {
		if err := tb.registerDataset(ds); err != nil {
			return nil, err
		}
	}

	// The request manager runs at the user's site (§4).
	tb.RM, err = rm.New(rm.Config{
		Clock:             clk,
		Net:               tb.client,
		LocalHost:         cfg.ClientSite,
		Replica:           tb.Replica,
		Info:              tb.Info,
		DestStore:         gridftp.NewVirtualStore(),
		Auth:              rmAuth,
		Log:               tb.Log,
		Policy:            cfg.Policy,
		Parallelism:       cfg.Parallelism,
		BufferBytes:       cfg.BufferBytes,
		CacheDataChannels: cfg.CacheDataChannels,
		MinRateBps:        cfg.MinRateBps,
		MaxConcurrent:     cfg.MaxConcurrent,
		MonitorInterval:   2 * time.Second,
		MaxAttempts:       6,
		RetryBackoff:      2 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	return tb, nil
}

func (tb *Testbed) registerDataset(ds DatasetSpec) error {
	coll := ds.Name + "-monthly"
	if err := tb.Meta.RegisterDataset(metadata.Dataset{
		Name:       ds.Name,
		Model:      ds.Model,
		Collection: coll,
		Comment:    fmt.Sprintf("synthetic %s run, %s..%s", ds.Model, ds.From.Format("2006-01"), ds.To.Format("2006-01")),
		Variables:  ds.Variables,
		From:       ds.From,
		To:         ds.To,
	}); err != nil {
		return err
	}
	var names []string
	var sizes []int64
	for _, ym := range climate.MonthsBetween(ds.From, ds.To) {
		for _, v := range ds.Variables {
			names = append(names, climate.FileName(ds.Model, v, ym[0], ym[1]))
			sizes = append(sizes, climate.LogicalSizeBytes(v))
		}
	}
	if err := tb.Replica.CreateCollection(coll, names); err != nil {
		return err
	}
	for i, name := range names {
		if err := tb.Replica.RegisterLogicalFile(coll, name, sizes[i]); err != nil {
			return err
		}
	}
	sites := ds.ReplicaSites
	if sites == nil {
		for _, s := range tb.sites {
			sites = append(sites, s.Name)
		}
	}
	for _, siteName := range sites {
		site, err := tb.site(siteName)
		if err != nil {
			return err
		}
		if err := tb.Replica.AddLocation(coll, replica.Location{
			Host: site.Name, Protocol: "gsiftp", Port: 2811,
			Path: "/esg/" + ds.Name, Files: names, Staged: site.HRM,
		}); err != nil {
			return err
		}
		if site.HRM {
			h := tb.HRMs[site.Name]
			if h == nil {
				h = hrm.New(tb.Clock, hrm.DefaultConfig)
				tb.HRMs[site.Name] = h
			}
			for i, name := range names {
				h.AddTapeFile(hrm.TapeFile{Name: name, Size: sizes[i], Tape: fmt.Sprintf("T%03d", i/12)})
			}
		} else {
			store := tb.Stores[site.Name]
			if store == nil {
				store = gridftp.NewVirtualStore()
				tb.Stores[site.Name] = store
			}
			for i, name := range names {
				store.Put(name, sizes[i])
			}
		}
	}
	return nil
}

func (tb *Testbed) site(name string) (Site, error) {
	for _, s := range tb.sites {
		if s.Name == name {
			return s, nil
		}
	}
	return Site{}, fmt.Errorf("esgrid: unknown site %q", name)
}

// Run executes fn inside the simulation with all services started.
func (tb *Testbed) Run(fn func()) {
	err := tb.grid.Run(func() {
		if tb.start() {
			fn()
		}
	})
	if err != nil {
		panic("esgrid: testbed start: " + err.Error())
	}
}

// start launches GridFTP servers, HRM RPC services and NWS sensors; it
// must run on the simulation scheduler. False means a setup error is
// latched on the grid.
func (tb *Testbed) start() bool {
	if tb.started {
		return true
	}
	tb.started = true
	g := tb.grid
	var trust *gsi.TrustStore
	if tb.CA != nil {
		trust = gsi.NewTrustStore(tb.CA)
	}
	for _, s := range tb.sites {
		var store gridftp.FileStore
		if h := tb.HRMs[s.Name]; h != nil {
			store = h.Store()
			// HRM RPC endpoint (the CORBA interface of §4).
			if !g.ServeRPC(s.Name, fmt.Sprintf(":%d", hrm.Port), h.RegisterRPC) {
				return false
			}
		} else {
			vs := tb.Stores[s.Name]
			if vs == nil {
				// Empty store: the site can still receive replicas.
				vs = gridftp.NewVirtualStore()
				tb.Stores[s.Name] = vs
			}
			store = vs
		}
		var auth *gsi.Config
		if tb.CA != nil {
			id, err := tb.CA.Issue("/O=ESG/CN=gridftp/"+s.Name, vtime.Epoch, 30*24*time.Hour)
			if g.Fail(err) {
				return false
			}
			auth = &gsi.Config{Identity: id, Trust: trust, Clock: tb.Clock, HandshakeCost: tb.cfg.HandshakeCost}
		}
		if !g.Serve(s.Name, gridftp.Config{Store: store, Auth: auth}) ||
			g.Fail(tb.Info.RegisterHost(mds.HostInfo{
				Name: s.Name, Site: s.Name, Services: []string{"gridftp:2811"},
			})) {
			return false
		}
	}
	// NWS: measure every site -> client pair and publish into MDS (§5),
	// with real probe transfers between hosts or the simulator's oracle
	// estimate plus short-probe noise.
	prober := g.OracleProber(0.05)
	if tb.cfg.ActiveProbes {
		hosts := []string{tb.cfg.ClientSite}
		for _, s := range tb.sites {
			hosts = append(hosts, s.Name)
		}
		if prober = g.ActiveProber(hosts...); prober == nil {
			return false
		}
	}
	tb.Sensor = nws.NewSensor(tb.Clock, prober, tb.Info, tb.cfg.NWSPeriod)
	for _, s := range tb.sites {
		tb.Sensor.Watch(s.Name, tb.cfg.ClientSite)
	}
	tb.Sensor.MeasureNow()
	tb.Sensor.Start()
	return true
}

// Fetch resolves a query in the metadata catalog and submits the
// resulting logical files to the request manager — the §3 -> §4 hand-off.
func (tb *Testbed) Fetch(q Query) (*Request, error) {
	coll, files, err := tb.Meta.Resolve(q)
	if err != nil {
		return nil, err
	}
	reqs := make([]rm.FileRequest, len(files))
	for i, f := range files {
		reqs[i] = rm.FileRequest{Name: f.Name, Size: f.Size}
	}
	user := "/O=ESG/CN=climate-scientist"
	return tb.RM.Submit(user, coll, reqs)
}

// Analyze regenerates the content of a fetched variable-month and
// extracts its first time step as a Field. (Transfers move virtual
// payloads; the deterministic generator reproduces what the file holds.)
func (tb *Testbed) Analyze(model, varName string, year, month int) (*Field, error) {
	m := climate.NewModel(model, climate.DefaultGrid)
	f, err := m.MonthlyFile(varName, year, month)
	if err != nil {
		return nil, err
	}
	return analysis.ExtractField(f, varName, 0)
}

// Replicate copies a dataset's collection to the named site via
// third-party transfers and registers the new location — §6.2's
// "reliable creation of a copy of a large data collection at a new
// location". The destination must be a non-HRM testbed site.
func (tb *Testbed) Replicate(dataset, destSite string) (replicate.Report, error) {
	ds, err := tb.Meta.Lookup(dataset)
	if err != nil {
		return replicate.Report{}, err
	}
	site, err := tb.site(destSite)
	if err != nil {
		return replicate.Report{}, err
	}
	if site.HRM {
		return replicate.Report{}, fmt.Errorf("esgrid: site %s archives to tape; replicate to a disk site", destSite)
	}
	return replicate.Replicate(replicate.Config{
		Clock:       tb.Clock,
		Net:         tb.client,
		Catalog:     tb.Replica,
		Auth:        tb.userAuth,
		Parallelism: tb.cfg.Parallelism,
		BufferBytes: tb.cfg.BufferBytes,
		MaxAttempts: 4,
		Backoff:     2 * time.Second,
	}, ds.Collection, replica.Location{
		Host: destSite, Protocol: "gsiftp", Port: 2811, Path: "/esg/" + dataset,
	}, nil)
}

// Dir exposes the testbed's catalog directory tree (for LDIF export and
// the esgquery CLI).
func (tb *Testbed) Dir() *ldapd.Dir { return tb.dir }

// ClientHost exposes the user's simulated host (for custom protocols in
// examples and experiments).
func (tb *Testbed) ClientHost() *simnet.Host { return tb.client }

// UserAuth returns the user's GSI configuration (nil without Security).
func (tb *Testbed) UserAuth() *gsi.Config { return tb.userAuth }
