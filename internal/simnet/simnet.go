// Package simnet is a deterministic, virtual-time wide-area network
// simulator. It stands in for the SciNET / NTON / HSCC infrastructure and
// the SC'00 cluster hardware of the paper's experiments (DESIGN.md §1).
//
// # Model
//
// The topology is a graph of named nodes joined by full-duplex links with
// capacity, propagation delay and a random per-packet loss probability.
// Hosts are leaf nodes that carry additional per-host resources: a CPU
// budget consumed per byte and per frame (gigabit interrupt servicing —
// the bottleneck the paper identifies for its sustained rates) and an
// optional disk bandwidth cap (the bottleneck in Figure 8).
//
// Traffic follows a fluid-flow TCP model. Each active connection
// direction is a flow with an AIMD congestion window (slow start, additive
// increase, halving on loss) bounded by the negotiated socket buffer — so
// the bandwidth×delay product tuning that §7 of the paper calls critical
// emerges naturally. Instantaneous flow rates are the weighted max-min
// fair allocation over every resource on the flow's path, recomputed when
// flows start or stop, windows change, losses strike, or faults alter
// capacities. Between recomputations rates are constant, so hours of
// virtual transfer cost only a handful of events.
//
// Connections implement net.Conn. Bulk payload normally moves through the
// virtual fast path (transport.VirtualWriter/VirtualReader): only byte
// counts cross the simulated wire, so the 230.8 GB hour of Table 1 runs
// in milliseconds with no allocation. Small protocol messages are carried
// as real bytes with correct ordering and latency.
package simnet

import (
	"fmt"
	"math"
	"sync"
	"time"

	"esgrid/internal/flight"
	"esgrid/internal/netlogger"
	"esgrid/internal/vtime"
)

// Default TCP parameters; values chosen to match the paper's testbed
// descriptions (§7: 1 MB tuned buffers vs small OS defaults).
const (
	DefaultBufferBytes = 64 * 1024 // untuned OS socket buffer
	DefaultMSS         = 1460      // standard Ethernet MSS
	JumboMSS           = 8960      // jumbo frames (§7 discussion)
	initialWindowMSS   = 4         // initial congestion window, in MSS
)

// Provenance sites for every event class the network schedules, so a
// flight-recorder chain names the mechanism ("simnet.loss caused this
// rm.retry-backoff") rather than an anonymous timer.
var (
	siteGrowth     = vtime.RegisterSite("simnet.growth")
	siteLoss       = vtime.RegisterSite("simnet.loss")
	siteCompletion = vtime.RegisterSite("simnet.completion")
	siteDeliver    = vtime.RegisterSite("simnet.deliver")
	siteLinger     = vtime.RegisterSite("simnet.linger")
	siteHandshake  = vtime.RegisterSite("simnet.handshake")
)

// LinkConfig describes one full-duplex link.
type LinkConfig struct {
	// CapacityBps is the data capacity of each direction, bits/second.
	CapacityBps float64
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// LossRate is the probability that any given packet is lost,
	// independently; it drives AIMD window halving (0 = clean link).
	LossRate float64
}

// HostConfig describes per-host resources.
type HostConfig struct {
	// CPU, if non-nil, bounds the host's aggregate packet-processing
	// throughput (the paper's "CPU was running at near 100% capacity").
	CPU *CPUConfig
	// DiskBps, if > 0, caps the aggregate rate of disk-bound flows at
	// this host, bits/second (Figure 8's ~80 Mb/s plateau).
	DiskBps float64
	// DefaultBufferBytes overrides the initial socket buffer for
	// connections made by this host (0 = DefaultBufferBytes).
	DefaultBufferBytes int
	// MSS overrides the host's TCP segment size (0 = DefaultMSS;
	// JumboMSS models 9000-byte jumbo frames, §7).
	MSS int
}

// CPUConfig models network-processing CPU cost. A flow moving at R
// bytes/s with maximum segment size mss consumes R*(PerByte + PerFrame/mss)
// of the host's budget of 1.0. Interrupt coalescing divides PerFrame;
// jumbo frames raise mss; both are the remedies §7 discusses.
type CPUConfig struct {
	PerByte  float64 // budget consumed per byte moved
	PerFrame float64 // budget consumed per frame (interrupt) handled
	Coalesce float64 // interrupt coalescing factor (>=1 divides PerFrame; 0 = 1)
}

// GigabitHostCPU returns the CPU model used for the SC'00 gigabit
// workstations: calibrated so that a single untuned host saturates its CPU
// near 650 Mb/s at standard frames without coalescing, and proportionally
// higher with coalescing or jumbo frames.
func GigabitHostCPU(coalesce float64) *CPUConfig {
	return &CPUConfig{
		PerByte:  4.0e-9,  // ~250 MB/s memory/copy path ceiling alone
		PerFrame: 1.25e-5, // ~80k interrupts/s ceiling alone
		Coalesce: coalesce,
	}
}

// weight returns the CPU budget consumed per bit/s of flow rate.
func (c *CPUConfig) weight(mss int) float64 {
	co := c.Coalesce
	if co < 1 {
		co = 1
	}
	return (c.PerByte + c.PerFrame/co/float64(mss)) / 8
}

// Net is the simulator. All methods are safe for concurrent use by
// goroutines managed by the simulation's vtime.Sim.
type Net struct {
	clk *vtime.Sim

	// Observability (Instrument): life-line events for retired
	// connections and the simnet.flows.active gauge. Set before traffic
	// starts; nil means uninstrumented. rec, when set (AttachFlight),
	// receives packed conn-transition and allocator-pass records on the
	// flight recorder's data ring — written under mu, zero-alloc.
	nlog        *netlogger.Log
	metrics     *netlogger.Registry
	flowsActive *netlogger.Gauge
	rec         *flight.Recorder

	mu        sync.Mutex
	nodes     map[string]*node
	hosts     map[string]*Host
	links     []*Link
	listeners map[sockAddr]*Listener
	routes    map[[2]string][]*simplex
	// Route search scratch (routeLocked), indexed by node id, so a new
	// route costs only its cached path slice.
	routeVia   []*simplex
	routeMark  []uint64
	routeQueue []*node
	routeEpoch uint64
	dnsUp      bool
	nextPort   int
	nextResID  int
	// nextConnSeq stamps connections in creation order, so fault paths
	// that reset many victims do so in a deterministic order.
	nextConnSeq int64
	// nextFlowSeq stamps flows in creation order; the flush sorts dirty
	// seeds and gathered components by it so allocation order — and with
	// it floating-point rounding — is a function of the event history
	// alone, not of the goroutine interleaving that marked the dirt.
	nextFlowSeq uint64

	// Incremental allocation state (see alloc.go): dirty seeds for the
	// next flush, the pending-flush latch, and the BFS visit epoch.
	dirtyFlows   []*flow
	dirtyRes     []*res
	flushPending bool
	epoch        uint64
	verifyAllocs bool
	allocPasses  uint64 // diagnostic: component allocation passes run
	allocFlows   uint64 // diagnostic: flows visited across those passes
	// inFlush is set while the end-of-instant flush runs, after every
	// event due at the instant. growSkipped, growWakes and growTies
	// count the growth ticks sleeping flows skipped, their wakes, and
	// the same-instant orders growTo could not decide (GrowthStats).
	inFlush     bool
	growSkipped uint64
	growWakes   uint64
	growTies    uint64

	// Allocator working state. scr is the scratch (flush,
	// verification and estimation share it) and scrFlows the buffer
	// active-flow snapshots and the estimation probe reuse. compFree
	// recycles component records (a plain LIFO, like segFree); tmpComp
	// is the throwaway record of allocate's ad-hoc flow lists, so they
	// never disturb a live component's. compHits counts the passes whose
	// record was still live (CSRStats).
	scr      allocScratch
	scrFlows []*flow
	compFree []*component
	tmpComp  component
	compHits uint64
	// observed is every active flow in creation order, kept from the
	// first flush FlushObserver sees on (observing set): activations
	// insert, and each observed flush drops the flows gone idle.
	observed  []*flow
	observing bool

	// segFree recycles segment objects (and their payload buffers, kept
	// attached) under mu. A plain LIFO — not a sync.Pool — so reuse order
	// is deterministic across equal-seed runs.
	segFree []*segment
}

// getSegLocked pops a recycled segment or allocates one. Caller holds mu.
func (n *Net) getSegLocked() *segment {
	if k := len(n.segFree); k > 0 {
		s := n.segFree[k-1]
		n.segFree = n.segFree[:k-1]
		return s
	}
	return &segment{}
}

// putSegLocked recycles a fully consumed segment. The payload buffer stays
// attached so a later Write of similar size reuses it. Caller holds mu.
func (n *Net) putSegLocked(s *segment) {
	s.end = 0
	s.n = 0
	s.fin = false
	if s.data != nil {
		s.data = s.data[:0]
	}
	n.segFree = append(n.segFree, s)
}

type node struct {
	name  string
	id    int        // dense index into the route search's scratch
	edges []*simplex // outgoing directed edges
}

// Link is a full-duplex link between two nodes.
type Link struct {
	net  *Net
	Name string
	A, B string
	fwd  *simplex // A -> B
	rev  *simplex // B -> A
}

// simplex is one direction of a link; it is a fairness resource.
type simplex struct {
	res
	link  *Link
	from  *node
	to    *node
	delay time.Duration
	loss  float64
}

// res is a shared capacity resource participating in max-min allocation.
type res struct {
	name   string
	id     int     // dense index into the allocator's scratch arrays
	capBps float64 // configured capacity, bits/s
	factor float64 // degradation factor (faults), 1 = healthy
	up     bool

	// Incremental allocation state (alloc.go): the active flows
	// consuming this resource, the flush visit stamp, and whether the
	// resource is queued as a dirty seed.
	flows []resEntry
	epoch uint64
	dirty bool
}

func (r *res) effective() float64 {
	if !r.up {
		return 0
	}
	return r.capBps * r.factor
}

// New creates an empty simulated network on the given simulated clock.
func New(clk *vtime.Sim) *Net {
	n := &Net{
		clk:       clk,
		nodes:     map[string]*node{},
		hosts:     map[string]*Host{},
		listeners: map[sockAddr]*Listener{},
		routes:    map[[2]string][]*simplex{},
		dnsUp:     true,
		nextPort:  40000,
	}
	// The flush rides the clock's end-of-instant hook: it fires exactly
	// where its former zero-delay event did (after every event due at the
	// instant), but arming costs a flag flip instead of an event
	// schedule/dispatch cycle — and the flush path fires once per dirty
	// instant, the highest event frequency in the tree.
	clk.SetInstantHook(func() {
		n.mu.Lock()
		// Deferred, so a verification panic leaves the hook with mu free:
		// the goroutine advancing the clock is usually parked in a
		// Cond.Wait whose deferred re-lock of mu runs as the panic unwinds.
		defer n.mu.Unlock()
		n.flushPending = false
		n.inFlush = true
		n.flushLocked()
		n.inFlush = false
	})
	return n
}

// Clock returns the simulated clock driving this network.
func (n *Net) Clock() *vtime.Sim { return n.clk }

// Instrument attaches observability to the network: retired connections
// are logged as simnet.conn.retired events (with the life-line label the
// protocol layer set via transport.Labeler), and the number of active
// flows is tracked in the simnet.flows.active gauge. Either argument may
// be nil. Call before traffic starts.
func (n *Net) Instrument(log *netlogger.Log, metrics *netlogger.Registry) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nlog = log
	n.metrics = metrics
	n.flowsActive = metrics.Gauge("simnet.flows.active")
}

// AttachFlight hands the network a flight recorder: connection state
// transitions and allocator passes are appended to its data ring, under
// the network's own lock, with no allocation — cheap enough to leave on
// for every run. Call before traffic starts.
func (n *Net) AttachFlight(rec *flight.Recorder) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.rec = rec
}

// CSRStats reports how often a flush found its component's persistent
// record (membership, canonical order and CSR flatten) still live: hits
// out of lookups, one lookup per allocation pass.
func (n *Net) CSRStats() (hits, lookups uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.compHits, n.allocPasses
}

// AddNode registers a router/switch node with the given name.
func (n *Net) AddNode(name string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nodeLocked(name)
}

func (n *Net) nodeLocked(name string) *node {
	if nd, ok := n.nodes[name]; ok {
		return nd
	}
	nd := &node{name: name, id: len(n.nodes)}
	n.nodes[name] = nd
	return nd
}

// AddHost registers a host node. Hosts originate and terminate traffic and
// carry CPU/disk resources.
func (n *Net) AddHost(name string, cfg HostConfig) *Host {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.hosts[name]; dup {
		panic("simnet: duplicate host " + name)
	}
	nd := n.nodeLocked(name)
	h := &Host{net: n, name: name, node: nd, cfg: cfg}
	if cfg.CPU != nil {
		h.cpu = &res{name: "cpu:" + name, id: n.newResIDLocked(), capBps: 1.0, factor: 1, up: true}
	}
	if cfg.DiskBps > 0 {
		h.disk = &res{name: "disk:" + name, id: n.newResIDLocked(), capBps: cfg.DiskBps, factor: 1, up: true}
	}
	n.hosts[name] = h
	return h
}

// Host returns a previously added host, or nil.
func (n *Net) Host(name string) *Host {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.hosts[name]
}

// AddLink joins nodes a and b with a full-duplex link. Nodes are created
// on demand.
func (n *Net) AddLink(a, b string, cfg LinkConfig) *Link {
	n.mu.Lock()
	defer n.mu.Unlock()
	na, nb := n.nodeLocked(a), n.nodeLocked(b)
	l := &Link{net: n, Name: a + "<->" + b, A: a, B: b}
	l.fwd = &simplex{
		res:  res{name: a + "->" + b, id: n.newResIDLocked(), capBps: cfg.CapacityBps, factor: 1, up: true},
		link: l, from: na, to: nb, delay: cfg.Delay, loss: cfg.LossRate,
	}
	l.rev = &simplex{
		res:  res{name: b + "->" + a, id: n.newResIDLocked(), capBps: cfg.CapacityBps, factor: 1, up: true},
		link: l, from: nb, to: na, delay: cfg.Delay, loss: cfg.LossRate,
	}
	na.edges = append(na.edges, l.fwd)
	nb.edges = append(nb.edges, l.rev)
	n.links = append(n.links, l)
	n.routes = map[[2]string][]*simplex{} // invalidate route cache
	return l
}

// route returns the directed path from a to b (BFS hop count), cached.
func (n *Net) routeLocked(a, b string) ([]*simplex, error) {
	if a == b {
		return nil, nil
	}
	key := [2]string{a, b}
	if p, ok := n.routes[key]; ok {
		return p, nil
	}
	src, ok := n.nodes[a]
	if !ok {
		return nil, fmt.Errorf("simnet: unknown node %q", a)
	}
	dst, ok := n.nodes[b]
	if !ok {
		return nil, fmt.Errorf("simnet: unknown node %q", b)
	}
	// Breadth-first search over dense node ids: routeMark stamps the
	// nodes this search reached, routeVia the edge each was first
	// reached by. A FIFO queue and first-reach marking make the same
	// tree, and so the same path, as any BFS expanding edges in order.
	if len(n.routeVia) < len(n.nodes) {
		n.routeVia = make([]*simplex, len(n.nodes))
		n.routeMark = make([]uint64, len(n.nodes))
	}
	n.routeEpoch++
	mark := n.routeEpoch
	n.routeMark[src.id] = mark
	queue := append(n.routeQueue[:0], src)
	for i := 0; i < len(queue) && n.routeMark[dst.id] != mark; i++ {
		for _, e := range queue[i].edges {
			if n.routeMark[e.to.id] != mark {
				n.routeMark[e.to.id] = mark
				n.routeVia[e.to.id] = e
				queue = append(queue, e.to)
			}
		}
	}
	n.routeQueue = queue[:0]
	if n.routeMark[dst.id] != mark {
		return nil, fmt.Errorf("simnet: no route %s -> %s", a, b)
	}
	hops := 0
	for x := dst; x != src; x = n.routeVia[x.id].from {
		hops++
	}
	path := make([]*simplex, hops)
	for x := dst; x != src; x = n.routeVia[x.id].from {
		hops--
		path[hops] = n.routeVia[x.id]
	}
	n.routes[key] = path
	return path, nil
}

// PathRTT returns the round-trip propagation delay between two nodes.
func (n *Net) PathRTT(a, b string) (time.Duration, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	fwd, err := n.routeLocked(a, b)
	if err != nil {
		return 0, err
	}
	rev, err := n.routeLocked(b, a)
	if err != nil {
		return 0, err
	}
	var d time.Duration
	for _, s := range fwd {
		d += s.delay
	}
	for _, s := range rev {
		d += s.delay
	}
	return d, nil
}

// SetDNS sets whether name resolution works; while down, Dial fails with
// a *DNSError (Figure 8's "DNS problems").
func (n *Net) SetDNS(up bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dnsUp = up
}

// DNSError reports a simulated name-service failure.
type DNSError struct{ Name string }

func (e *DNSError) Error() string { return "simnet: cannot resolve " + e.Name + ": DNS unavailable" }

// SetUp brings one link up or down. Bringing a link down stalls flows
// crossing it; if reset is true it also resets (kills) every connection
// whose path crosses the link, as a power failure would.
func (l *Link) SetUp(up bool, reset bool) {
	n := l.net
	n.mu.Lock()
	l.fwd.up = up
	l.rev.up = up
	var victims []*Conn
	if !up && reset {
		n.eachConnLocked(func(c *Conn) {
			if c.crossesLink(l) {
				victims = append(victims, c)
			}
		})
		// Host iteration above is unordered; reset in creation order so
		// the conn.retired event stream is identical across equal-seed runs.
		sortConnsBySeq(victims)
	}
	n.markResDirtyLocked(&l.fwd.res)
	n.markResDirtyLocked(&l.rev.res)
	n.mu.Unlock()
	for _, c := range victims {
		c.reset(fmt.Errorf("simnet: connection reset: link %s failed", l.Name))
	}
}

// SetCapacityFactor degrades (or restores) the link's usable capacity
// (Figure 8's "backbone problems"). factor 1 = healthy.
func (l *Link) SetCapacityFactor(f float64) {
	n := l.net
	n.mu.Lock()
	defer n.mu.Unlock()
	l.fwd.factor = f
	l.rev.factor = f
	n.markResDirtyLocked(&l.fwd.res)
	n.markResDirtyLocked(&l.rev.res)
}

// SetLossRate changes the link's random packet-loss probability.
func (l *Link) SetLossRate(p float64) {
	n := l.net
	n.mu.Lock()
	defer n.mu.Unlock()
	l.fwd.loss = p
	l.rev.loss = p
}

// LossRate returns the link's current packet-loss probability, so burst
// fault injection can restore it afterwards.
func (l *Link) LossRate() float64 {
	n := l.net
	n.mu.Lock()
	defer n.mu.Unlock()
	return l.fwd.loss
}

// EstimateBandwidth predicts the rate, in bits/s, that one additional
// greedy flow from a to b would obtain right now, given current traffic.
// This is what the Network Weather Service's bandwidth sensor measures.
func (n *Net) EstimateBandwidth(a, b string) (float64, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	path, err := n.routeLocked(a, b)
	if err != nil {
		return 0, err
	}
	ha, hb := n.hosts[a], n.hosts[b]
	probe := &flow{
		path: path,
		mss:  DefaultMSS,
		// A measurement probe is window-unbounded for estimation purposes.
		windowCap: math.Inf(1),
	}
	if ha != nil {
		probe.src = ha
	}
	if hb != nil {
		probe.dst = hb
	}
	// The probe only contends with flows in its own component: gather it
	// with the allocator's own BFS instead of allocating over every active
	// flow in the network. The probe is attached nowhere and the pass runs
	// on the throwaway record, so no live component's record is touched.
	n.flushLocked()
	n.epoch++
	n.scrFlows = n.bfsLocked(probe, n.scrFlows[:0])
	now := n.clk.Elapsed()
	for _, f := range n.scrFlows {
		f.growTo(now, tickUnknown)
	}
	return n.allocate(n.scrFlows)[0], nil
}

// newResIDLocked hands out dense resource indices.
func (n *Net) newResIDLocked() int {
	id := n.nextResID
	n.nextResID++
	return id
}

// eachConnLocked calls fn once for every live connection, at the host
// that dialed it, in no particular order.
func (n *Net) eachConnLocked(fn func(c *Conn)) {
	for _, h := range n.hosts {
		for _, c := range h.conns {
			if c.eps[0].host == h {
				fn(c)
			}
		}
	}
}

// activeFlowsLocked returns flows that currently demand bandwidth, using
// a reusable scratch slice.
func (n *Net) activeFlowsLocked() []*flow {
	fs := n.scrFlows[:0]
	n.eachConnLocked(func(c *Conn) {
		for _, f := range c.flows {
			if f.active {
				fs = append(fs, f)
			}
		}
	})
	// The hosts map walks in random order; restore creation order so the
	// reference allocator's rounding is reproducible too.
	sortFlowsBySeq(fs)
	n.scrFlows = fs
	return fs
}

// allocate computes the weighted max-min fair rate (bits/s) for each
// flow in fs, an ad-hoc list (every active flow for verification, a
// probe and its neighbours for estimation) flattened afresh on the Net's
// scratch. The flush itself passes component records to the
// kernel (allocscratch.go) directly. The returned slice is scratch and
// only valid until the next pass on n.scr.
func (n *Net) allocate(fs []*flow) []float64 {
	n.tmpComp.flows, n.tmpComp.flat = fs, false
	return n.scr.alloc(&n.tmpComp, n.nextResID)
}

// TotalBytesBetween returns cumulative payload bytes transmitted on flows
// from host a to host b (continuous, including bytes of in-progress
// segments). Experiments use it for bandwidth metering.
func (n *Net) TotalBytesBetween(a, b string) float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.flushLocked()
	now := n.clk.Elapsed()
	var total int64
	if h := n.hosts[a]; h != nil {
		for _, c := range h.conns {
			for _, f := range c.flows {
				if f.src == h && f.dst.name == b {
					total += toByteUnits(f.transmittedAt(now))
				}
			}
		}
		total += h.retiredBytesTo[b]
	}
	return float64(total) / byteUnits
}

// byteUnits is the fixed-point scale of summed byte counts. Sums are
// kept as int64 multiples of 1/byteUnits byte, so a total does not
// depend on the order its terms arrive in (flows start and retire in
// the order their events run).
const byteUnits = 1 << 16

func toByteUnits(b float64) int64 { return int64(math.Round(b * byteUnits)) }

// LinkBetween returns the link directly joining nodes a and b (in either
// orientation), or nil. Experiments use it for fault injection.
func (n *Net) LinkBetween(a, b string) *Link {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, l := range n.links {
		if (l.A == a && l.B == b) || (l.A == b && l.B == a) {
			return l
		}
	}
	return nil
}
