// Package rm implements the LBNL Request Manager of §4: the component
// that accepts multi-file requests on behalf of multiple users, and for
// each file (on its own goroutine, as the paper's RM uses a thread per
// file) finds all replicas in the replica catalog, consults the NWS
// forecasts published in MDS, selects the best replica, asks the HRM to
// stage tape-resident files, runs the GridFTP transfer, and monitors
// progress every few seconds — switching to an alternate replica when
// the reliability plug-in sees the rate drop below threshold (§7,
// Figure 8).
package rm

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"esgrid/internal/esgrpc"
	"esgrid/internal/gridftp"
	"esgrid/internal/gsi"
	"esgrid/internal/hrm"
	"esgrid/internal/mds"
	"esgrid/internal/netlogger"
	"esgrid/internal/replica"
	"esgrid/internal/transport"
	"esgrid/internal/vtime"
)

// Provenance site tag(s) for the delays this package schedules on
// the virtual clock (flight-recorder attribution).
var (
	siteRetryBackoff = vtime.RegisterSite("rm.retry-backoff")
	siteMonitorTick  = vtime.RegisterSite("rm.monitor-tick")
	siteReleaseRetry = vtime.RegisterSite("rm.release-retry")
)

// Policy selects among candidate replicas.
type Policy int

// Replica selection policies. PolicyNWS is the paper's; the others are
// the baselines of experiment S4.
const (
	// PolicyNWS picks the replica with the highest forecast bandwidth to
	// the client (§5).
	PolicyNWS Policy = iota
	// PolicyRandom picks uniformly at random.
	PolicyRandom
	// PolicyFirst always picks the first catalog entry (static).
	PolicyFirst
)

func (p Policy) String() string {
	switch p {
	case PolicyNWS:
		return "nws"
	case PolicyRandom:
		return "random"
	case PolicyFirst:
		return "static"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// State is a file transfer's lifecycle stage.
type State int

// File states, in order.
const (
	StateQueued State = iota
	StateSelecting
	StateStaging
	StateTransferring
	StateDone
	StateFailed
)

func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateSelecting:
		return "selecting"
	case StateStaging:
		return "staging"
	case StateTransferring:
		return "transferring"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	}
	return "unknown"
}

// Config configures a request manager.
type Config struct {
	// Clock schedules workers and monitors; required.
	Clock vtime.Clock
	// Net is the transport of the host the RM (and destination) runs on.
	Net transport.Network
	// LocalHost is this host's name, the destination end for NWS lookups.
	LocalHost string
	// Replica locates file copies.
	Replica *replica.Catalog
	// Info supplies NWS forecasts (may be nil: selection falls back to
	// static order).
	Info *mds.Service
	// DestStore receives transferred files.
	DestStore gridftp.FileStore
	// Auth authenticates GridFTP control channels (optional).
	Auth *gsi.Config
	// Log receives transfer events (optional).
	Log *netlogger.Log
	// Tracer, when non-nil, mints a life-line trace per Submit: a span
	// tree covering queueing, replica selection, staging, the GridFTP
	// session (auth/control/data/teardown), and retries.
	Tracer *netlogger.Tracer
	// Metrics, when non-nil, receives rm.retries and is handed to GridFTP
	// clients for control-channel histograms.
	Metrics *netlogger.Registry
	// Policy is the replica selection policy.
	Policy Policy
	// Parallelism, BufferBytes, CacheDataChannels configure transfers.
	Parallelism       int
	BufferBytes       int
	CacheDataChannels bool
	// MaxAttempts bounds per-file attempts across all replicas.
	MaxAttempts int
	// RetryBackoff separates attempts.
	RetryBackoff time.Duration
	// MonitorInterval is how often progress is sampled ("every few
	// seconds", §4).
	MonitorInterval time.Duration
	// MinRateBps, when > 0, arms the reliability plug-in: a transfer
	// sustaining less than this over a monitor interval is aborted and
	// retried on an alternate replica (§7).
	MinRateBps float64
	// MaxConcurrent bounds simultaneously transferring files (0 = no cap).
	MaxConcurrent int
	// Rand supplies randomness for PolicyRandom (defaults to a fixed
	// sequence when nil).
	Rand func() float64
}

// Manager is the request manager service.
type Manager struct {
	cfg Config

	mu     sync.Mutex
	nextID int
	sem    *clockSem
}

// clockSem is a counting semaphore whose blocking is visible to the
// virtual-time scheduler (a plain channel would stall the clock).
// Admission is FIFO by ticket: tickets are handed out under the Manager's
// submit path, so the order files enter transfer never depends on which
// waiting goroutine the runtime happens to wake first — a requirement for
// byte-identical life-line traces across equal-seed runs.
type clockSem struct {
	mu   sync.Mutex
	cond vtime.Cond
	free int
	head int // next ticket to admit
	tail int // next ticket to hand out
}

func newClockSem(clk vtime.Clock, n int) *clockSem {
	s := &clockSem{free: n}
	s.cond = clk.NewCond(&s.mu)
	return s
}

func (s *clockSem) ticket() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tail
	s.tail++
	return t
}

func (s *clockSem) acquire(ticket int) {
	s.mu.Lock()
	for s.free == 0 || ticket != s.head {
		s.cond.Wait()
	}
	s.free--
	s.head++
	s.cond.Broadcast() // the next ticket may also be admittable
	s.mu.Unlock()
}

func (s *clockSem) release() {
	s.mu.Lock()
	s.free++
	s.cond.Broadcast()
	s.mu.Unlock()
}

// New validates cfg and creates a Manager.
func New(cfg Config) (*Manager, error) {
	if cfg.Clock == nil || cfg.Net == nil || cfg.Replica == nil || cfg.DestStore == nil {
		return nil, errors.New("rm: config needs Clock, Net, Replica and DestStore")
	}
	if cfg.Parallelism < 1 {
		cfg.Parallelism = 1
	}
	if cfg.MaxAttempts < 1 {
		cfg.MaxAttempts = 3
	}
	if cfg.MonitorInterval <= 0 {
		cfg.MonitorInterval = 2 * time.Second
	}
	m := &Manager{cfg: cfg}
	if cfg.MaxConcurrent > 0 {
		m.sem = newClockSem(cfg.Clock, cfg.MaxConcurrent)
	}
	return m, nil
}

// FileRequest names one logical file of a request.
type FileRequest struct {
	Name string
	Size int64 // 0: ask the catalog / server
}

// FileStatus is a snapshot of one file's progress (the rows of the
// Figure 4 monitor).
type FileStatus struct {
	Name     string
	Size     int64
	Received int64
	State    State
	Replica  string // chosen replica host
	Attempts int
	Error    string
	RateBps  float64 // rate over the last monitor interval
	// RequestedBytes sums the extents asked of servers across all
	// attempts. RequestedBytes − Size is the re-fetch overhead paid to
	// failures: bytes a dead attempt had in flight that a restart asked
	// for again (0 on a fault-free run — extent restart never re-requests
	// data already landed in the sink).
	RequestedBytes int64
}

// Request tracks one multi-file request.
type Request struct {
	ID         int
	User       string
	Collection string

	m     *Manager
	mu    sync.Mutex
	files []*fileState
	done  vtime.Cond
	open  int
	log   []string        // monitor messages (Figure 4's bottom pane)
	span  *netlogger.Span // life-line root (nil when untraced)
}

// Span returns the request's life-line root span (nil when untraced).
func (r *Request) Span() *netlogger.Span { return r.span }

type fileState struct {
	FileStatus
	sink   gridftp.Sink
	client *gridftp.Client // live transfer's control session, for aborts
	abort  bool
	span   *netlogger.Span // per-file life-line span (nil when untraced)
	qspan  *netlogger.Span // queue-wait span, minted at Submit
	ticket int             // FIFO admission order under MaxConcurrent
}

// Submit starts working on a request and returns its handle.
func (m *Manager) Submit(user, collection string, files []FileRequest) (*Request, error) {
	if len(files) == 0 {
		return nil, errors.New("rm: empty request")
	}
	m.mu.Lock()
	m.nextID++
	req := &Request{ID: m.nextID, User: user, Collection: collection, m: m, open: len(files)}
	req.done = m.cfg.Clock.NewCond(&req.mu)
	m.mu.Unlock()
	req.span = m.cfg.Tracer.StartTrace("rm.request", m.cfg.LocalHost,
		"user", user, "collection", collection, "files", fmt.Sprint(len(files)))
	for _, f := range files {
		fs := &fileState{FileStatus: FileStatus{Name: f.Name, Size: f.Size, State: StateQueued}}
		fs.span = req.span.Child("", "rm.file", "file", f.Name)
		if m.sem != nil {
			// Ticket and queue span are minted here, in file order, so
			// admission sequence and span ids never depend on goroutine
			// scheduling.
			fs.ticket = m.sem.ticket()
			fs.qspan = fs.span.Child(netlogger.StageQueue, "rm.queue")
		}
		req.files = append(req.files, fs)
	}
	for _, fs := range req.files {
		fs := fs
		m.cfg.Clock.Go(func() { m.runFile(req, fs) })
	}
	m.emit(req, "request %d: %d file(s) submitted by %s", req.ID, len(files), user)
	return req, nil
}

// Status snapshots all file states.
func (r *Request) Status() []FileStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]FileStatus, len(r.files))
	for i, f := range r.files {
		out[i] = f.FileStatus
		if f.sink != nil {
			out[i].Received = receivedBytes(f.sink)
		}
	}
	return out
}

// Messages returns the monitor log lines.
func (r *Request) Messages() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.log...)
}

// Wait blocks until every file is done or failed; it returns an error if
// any file failed.
func (r *Request) Wait() error {
	r.mu.Lock()
	for r.open > 0 {
		r.done.Wait()
	}
	defer r.mu.Unlock()
	var failed []string
	for _, f := range r.files {
		if f.State == StateFailed {
			failed = append(failed, fmt.Sprintf("%s: %s", f.Name, f.Error))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("rm: %d file(s) failed: %v", len(failed), failed)
	}
	return nil
}

// TotalReceived sums received bytes across the request.
func (r *Request) TotalReceived() int64 {
	var total int64
	for _, st := range r.Status() {
		total += st.Received
	}
	return total
}

func receivedBytes(s gridftp.Sink) int64 {
	var n int64
	for _, e := range s.Received() {
		n += e.Len
	}
	return n
}

func (m *Manager) emit(r *Request, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.mu.Lock()
	r.log = append(r.log, m.cfg.Clock.Now().Format("15:04:05")+" "+msg)
	r.mu.Unlock()
	if m.cfg.Log != nil {
		m.cfg.Log.Emit(m.cfg.LocalHost, "rm", "msg", msg)
	}
}

// candidate is a replica option with its forecast.
type candidate struct {
	loc      replica.Location
	forecast float64
}

// rankReplicas orders candidate locations per policy, best first.
func (m *Manager) rankReplicas(locs []replica.Location) []candidate {
	cands := make([]candidate, len(locs))
	for i, l := range locs {
		cands[i] = candidate{loc: l}
		if m.cfg.Info != nil {
			if f, err := m.cfg.Info.Forecast(l.Host, m.cfg.LocalHost); err == nil {
				cands[i].forecast = f.BandwidthBps
			}
		}
	}
	switch m.cfg.Policy {
	case PolicyNWS:
		sort.SliceStable(cands, func(i, j int) bool { return cands[i].forecast > cands[j].forecast })
	case PolicyRandom:
		rnd := m.cfg.Rand
		if rnd == nil {
			rnd = func() float64 { return 0.5 }
		}
		for i := len(cands) - 1; i > 0; i-- {
			j := int(rnd() * float64(i+1))
			if j > i {
				j = i
			}
			cands[i], cands[j] = cands[j], cands[i]
		}
	case PolicyFirst:
		// catalog order
	}
	return cands
}

// runFile drives one file through the §4 pipeline.
func (m *Manager) runFile(req *Request, fs *fileState) {
	defer func() {
		req.mu.Lock()
		req.open--
		// The root span ends before the request can be seen done: once
		// open reaches 0 and mu is released, Wait returns and its caller
		// may read the finished spans.
		if req.open == 0 {
			req.span.Finish()
		}
		req.done.Broadcast()
		req.mu.Unlock()
	}()
	if m.sem != nil {
		m.sem.acquire(fs.ticket)
		fs.qspan.Finish()
		defer m.sem.release()
	}
	err := m.transferFile(req, fs)
	req.mu.Lock()
	if err != nil {
		fs.State = StateFailed
		fs.Error = err.Error()
	} else {
		fs.State = StateDone
	}
	req.mu.Unlock()
	if err != nil {
		fs.span.Annotate("state", "failed", "err", err.Error())
		m.emit(req, "%s: FAILED: %v", fs.Name, err)
	} else {
		fs.span.Annotate("state", "done")
	}
	fs.span.Finish()
}

func (m *Manager) transferFile(req *Request, fs *fileState) error {
	setState := func(s State) {
		req.mu.Lock()
		fs.State = s
		req.mu.Unlock()
	}
	setState(StateSelecting)
	sel := fs.span.Child(netlogger.StageSelect, "rm.select")
	locs, err := m.cfg.Replica.LocationsFor(req.Collection, fs.Name)
	if err != nil {
		sel.Finish()
		return err
	}
	// Size: catalog entry, else request hint; servers are asked later.
	if fs.Size == 0 {
		if sz, ok := m.cfg.Replica.FileSize(req.Collection, fs.Name); ok {
			fs.Size = sz
		}
	}
	cands := m.rankReplicas(locs)
	sel.Annotate("replicas", fmt.Sprint(len(cands)), "best", cands[0].loc.Host)
	sel.Finish()
	m.emit(req, "%s: %d replica(s); policy=%s best=%s (%.1f Mb/s forecast)",
		fs.Name, len(cands), m.cfg.Policy, cands[0].loc.Host, cands[0].forecast/1e6)

	var lastErr error
	attempt := 0
	for ci := 0; ci < len(cands) && attempt < m.cfg.MaxAttempts; ci++ {
		cand := cands[ci]
		if attempt > 0 && m.cfg.RetryBackoff > 0 {
			rs := fs.span.Child(netlogger.StageRetry, "rm.backoff", "file", fs.Name)
			vtime.SleepTagged(m.cfg.Clock, siteRetryBackoff, m.cfg.RetryBackoff)
			rs.Finish()
		}
		err := m.tryReplica(req, fs, cand, &attempt)
		if err == nil {
			return nil
		}
		lastErr = err
		m.emit(req, "%s: replica %s failed (%v); trying alternate", fs.Name, cand.loc.Host, err)
		// Allow revisiting the list if we run out of candidates but still
		// have attempts (the outage may have healed).
		if ci == len(cands)-1 && attempt < m.cfg.MaxAttempts {
			ci = -1
		}
	}
	return fmt.Errorf("rm: all replicas failed after %d attempts: %w", attempt, lastErr)
}

// tryReplica performs staging + transfer from one replica, with progress
// monitoring and the low-rate abort.
func (m *Manager) tryReplica(req *Request, fs *fileState, cand candidate, attempt *int) error {
	*attempt++
	if *attempt > 1 {
		m.cfg.Metrics.Counter("rm.retries").Inc()
	}
	asp := fs.span.Child("", "rm.attempt",
		"n", fmt.Sprint(*attempt), "replica", cand.loc.Host, "file", fs.Name)
	defer asp.Finish()
	req.mu.Lock()
	fs.Replica = cand.loc.Host
	fs.Attempts = *attempt
	req.mu.Unlock()

	if cand.loc.Staged {
		req.mu.Lock()
		fs.State = StateStaging
		req.mu.Unlock()
		tape := asp.Child(netlogger.StageTape, "rm.stage", "host", cand.loc.Host, "file", fs.Name)
		if err := m.callHRM(cand.loc.Host, "hrm.stage", fs.Name); err != nil {
			tape.Annotate("err", err.Error())
			tape.Finish()
			return err
		}
		tape.Finish()
		// The HRM pins what it stages; unpin when this attempt ends, or
		// the cache fills with finished files.
		defer m.release(cand.loc.Host, fs.Name)
		m.emit(req, "%s: staged from mass storage at %s", fs.Name, cand.loc.Host)
	}

	req.mu.Lock()
	fs.State = StateTransferring
	req.mu.Unlock()

	addr := fmt.Sprintf("%s:%d", cand.loc.Host, cand.loc.Port)
	cli, err := gridftp.Dial(gridftp.ClientConfig{
		Clock:             m.cfg.Clock,
		Net:               m.cfg.Net,
		Auth:              m.cfg.Auth,
		Parallelism:       m.cfg.Parallelism,
		BufferBytes:       m.cfg.BufferBytes,
		CacheDataChannels: m.cfg.CacheDataChannels,
		Span:              asp,
		Metrics:           m.cfg.Metrics,
	}, addr)
	if err != nil {
		return err
	}
	defer cli.Close()

	size := fs.Size
	if size == 0 {
		if size, err = cli.Size(fs.Name); err != nil {
			return err
		}
		req.mu.Lock()
		fs.Size = size
		req.mu.Unlock()
	}
	req.mu.Lock()
	if fs.sink == nil {
		sink, err := m.cfg.DestStore.Create(fs.Name, size)
		if err != nil {
			req.mu.Unlock()
			return err
		}
		fs.sink = sink
	}
	sink := fs.sink
	fs.client = cli
	fs.abort = false
	req.mu.Unlock()
	defer func() {
		req.mu.Lock()
		fs.client = nil
		req.mu.Unlock()
	}()

	// Progress monitor: sample received bytes every interval; abort if
	// the reliability threshold is armed and undershot (§7's plug-in).
	stopMon := make(chan struct{})
	monDone := vtime.NewWaitGroup(m.cfg.Clock)
	monDone.Go(func() { m.monitor(req, fs, sink, stopMon) })

	missing := gridftp.MissingRanges(sink, size)
	var reqBytes int64
	for _, e := range missing {
		reqBytes += e.Len
	}
	req.mu.Lock()
	fs.RequestedBytes += reqBytes
	req.mu.Unlock()
	// The restart marker: what this attempt asks the server for. The
	// chaos invariant checker replays these events to assert extents stay
	// sorted, non-overlapping, and monotonically shrinking across
	// attempts.
	if m.cfg.Log != nil {
		m.cfg.Log.Emit(m.cfg.LocalHost, "rm.restart",
			"file", fs.Name, "attempt", fmt.Sprint(*attempt),
			"bytes", fmt.Sprint(reqBytes), "extents", gridftp.FormatRanges(missing))
	}
	var xferErr error
	if len(missing) == 0 {
		xferErr = nil
	} else if len(missing) == 1 && missing[0].Off == 0 && missing[0].Len == size {
		_, xferErr = cli.Get(fs.Name, sink)
	} else {
		m.emit(req, "%s: restarting; %d missing extent(s)", fs.Name, len(missing))
		_, xferErr = cli.GetRanges(fs.Name, sink, missing)
	}
	close(stopMon)
	monDone.Wait()

	req.mu.Lock()
	aborted := fs.abort
	req.mu.Unlock()
	if xferErr != nil {
		if aborted {
			return fmt.Errorf("rm: aborted: rate below %.1f Mb/s threshold", m.cfg.MinRateBps/1e6)
		}
		return xferErr
	}
	if err := sink.Complete(); err != nil {
		return err
	}
	m.emit(req, "%s: transfer complete from %s (%d bytes)", fs.Name, cand.loc.Host, size)
	return nil
}

// monitor samples progress until stopped; it updates RateBps and fires
// the low-rate abort.
func (m *Manager) monitor(req *Request, fs *fileState, sink gridftp.Sink, stop <-chan struct{}) {
	last := receivedBytes(sink)
	intervals := 0
	violations := 0
	// Sink coverage advances in whole MODE E blocks, so a healthy
	// transfer can legitimately show one empty interval; require several
	// consecutive sub-threshold intervals (after a slow-start grace
	// period) before declaring the replica bad.
	const graceIntervals = 1
	const violationsToAbort = 3
	for {
		vtime.SleepTagged(m.cfg.Clock, siteMonitorTick, m.cfg.MonitorInterval)
		select {
		case <-stop:
			return
		default:
		}
		cur := receivedBytes(sink)
		rate := float64(cur-last) * 8 / m.cfg.MonitorInterval.Seconds()
		last = cur
		intervals++
		if intervals > graceIntervals && m.cfg.MinRateBps > 0 && rate < m.cfg.MinRateBps {
			violations++
		} else {
			violations = 0
		}
		req.mu.Lock()
		fs.RateBps = rate
		cli := fs.client
		replica := fs.Replica
		shouldAbort := violations >= violationsToAbort && cli != nil && !fs.abort
		if shouldAbort {
			fs.abort = true
		}
		req.mu.Unlock()
		if m.cfg.Log != nil {
			// Structured progress sample, one per monitor interval. Emitted
			// whether or not anything is consuming it, so an instrumented
			// (monitored) run and a bare run produce identical event streams.
			m.cfg.Log.Emit(m.cfg.LocalHost, "rm.progress",
				"file", fs.Name, "replica", replica,
				"received", fmt.Sprint(cur), "ratebps", fmt.Sprintf("%.0f", rate))
		}
		if shouldAbort {
			m.emit(req, "%s: rate %.1f Mb/s below threshold; aborting for alternate replica", fs.Name, rate/1e6)
			cli.Close() // unblocks the transfer with an error
			return
		}
	}
}

// release unpins a staged file at its HRM. It runs on its own goroutine,
// so a slow or partitioned path to the HRM neither holds the file's
// transfer slot nor delays fail-over to another replica. A failed call
// is retried on the file's budget (MaxAttempts calls, RetryBackoff
// apart): a lost release leaves the file pinned for good. A retry after
// a call that did land unpins once more; the cost is at most an extra
// stage for another attempt pinning the same file.
func (m *Manager) release(host, file string) {
	m.cfg.Clock.Go(func() {
		for try := 1; ; try++ {
			err := m.callHRM(host, "hrm.release", file)
			if err == nil {
				return
			}
			if try == m.cfg.MaxAttempts {
				if m.cfg.Log != nil {
					m.cfg.Log.Emit(m.cfg.LocalHost, "rm.release-lost",
						"host", host, "file", file, "err", err.Error())
				}
				return
			}
			vtime.SleepTagged(m.cfg.Clock, siteReleaseRetry, m.cfg.RetryBackoff)
		}
	})
}

// callHRM calls method (hrm.stage or hrm.release) for file on the HRM
// RPC service at the replica host.
func (m *Manager) callHRM(host, method, file string) error {
	cli, err := esgrpc.Dial(m.cfg.Clock, m.cfg.Net, fmt.Sprintf("%s:%d", host, hrm.Port), nil)
	if err != nil {
		return fmt.Errorf("rm: dial HRM at %s: %w", host, err)
	}
	defer cli.Close()
	return cli.Call(method, hrm.StageRequest{File: file}, nil)
}
