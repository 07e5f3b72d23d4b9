package main

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"esgrid/internal/gridftp"
	"esgrid/internal/transport"
)

// trace.go is the benchmark's own tracer: spans are recorded from
// bench/ only, by decorators around the interfaces the program lets
// its caller supply (gridftp.FileStore/Source/Sink, transport.Network)
// and around the client calls. Spans stay in memory until the run ends.

// span is one timed interval at a layer boundary. Spans of one op share
// Op; Parent is the span that caused this one (0 = none).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer collects spans and transport counts. The workloads are closed
// loop with one client, so at any moment one op and at most one client
// call are in progress: a span begun on a server goroutine is caused by
// that call. A nil *tracer traces nothing.
type tracer struct {
	mu    sync.Mutex
	spans []span
	op    int32
	root  int32        // span of the op in progress
	cur   atomic.Int32 // client call in progress, else the op's root

	dials, accepts, bytesRead, bytesWritten atomic.Int64
}

func (t *tracer) begin(name string) int32 {
	now := nowNs()
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: t.cur.Load(), Op: t.op, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	now := nowNs()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// beginOp opens the root span of timed op i; endOp closes it. Spans
// recorded outside any timed op (set-up, warm-up) carry Op 0.
func (t *tracer) beginOp(i int) {
	t.mu.Lock()
	t.op = int32(i + 1)
	t.mu.Unlock()
	t.cur.Store(0)
	t.root = t.begin("op")
	t.cur.Store(t.root)
}

func (t *tracer) endOp() {
	t.end(t.root)
	t.cur.Store(0)
}

// call runs one client call inside a span that becomes the parent of
// every layer span begun until it returns.
func (t *tracer) call(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	id := t.begin(name)
	t.cur.Store(id)
	err := fn()
	t.cur.Store(t.root)
	t.end(id)
	return err
}

// transportCounts is a snapshot of the decorated Network's counters.
type transportCounts struct{ dials, accepts, read, written int64 }

func (t *tracer) counts() transportCounts {
	return transportCounts{t.dials.Load(), t.accepts.Load(), t.bytesRead.Load(), t.bytesWritten.Load()}
}

// write stores the spans as JSON, with the environment they were
// measured in.
func (t *tracer) write(path, workload string, env environment) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload    string      `json:"workload"`
		Environment environment `json:"environment"`
		Spans       []span      `json:"spans"`
	}{workload, env, t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// --- decorators ---

type tracedStore struct {
	gridftp.FileStore
	tr *tracer
}

func (s tracedStore) Open(name string) (gridftp.Source, error) {
	id := s.tr.begin("dirstore.open")
	src, err := s.FileStore.Open(name)
	s.tr.end(id)
	if err != nil {
		return nil, err
	}
	return tracedSource{src, s.tr}, nil
}

func (s tracedStore) Create(name string, size int64) (gridftp.Sink, error) {
	id := s.tr.begin("dirstore.create")
	sink, err := s.FileStore.Create(name, size)
	s.tr.end(id)
	if err != nil {
		return nil, err
	}
	return tracedSink{sink, s.tr}, nil
}

type tracedSource struct {
	gridftp.Source
	tr *tracer
}

func (s tracedSource) SendRange(c transport.Conn, off, n int64) error {
	id := s.tr.begin("dirstore.send")
	err := s.Source.SendRange(c, off, n)
	s.tr.end(id)
	return err
}

type tracedSink struct {
	gridftp.Sink
	tr *tracer
}

func (s tracedSink) ReceiveRange(c transport.Conn, off, n int64) error {
	id := s.tr.begin("dirstore.recv")
	err := s.Sink.ReceiveRange(c, off, n)
	s.tr.end(id)
	return err
}

func (s tracedSink) Complete() error {
	id := s.tr.begin("dirstore.complete")
	err := s.Sink.Complete()
	s.tr.end(id)
	return err
}

type tracedNet struct {
	transport.Network
	tr *tracer
}

func (n tracedNet) Dial(addr string) (transport.Conn, error) {
	id := n.tr.begin("transport.dial")
	c, err := n.Network.Dial(addr)
	n.tr.end(id)
	if err != nil {
		return nil, err
	}
	n.tr.dials.Add(1)
	return tracedConn{c, n.tr}, nil
}

func (n tracedNet) Listen(addr string) (transport.Listener, error) {
	l, err := n.Network.Listen(addr)
	if err != nil {
		return nil, err
	}
	return tracedListener{l, n.tr}, nil
}

type tracedListener struct {
	transport.Listener
	tr *tracer
}

func (l tracedListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.tr.accepts.Add(1)
	return tracedConn{c, l.tr}, nil
}

type tracedConn struct {
	net.Conn
	tr *tracer
}

func (c tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.tr.bytesRead.Add(int64(n))
	return n, err
}

func (c tracedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.tr.bytesWritten.Add(int64(n))
	return n, err
}

// --- analysis ---

// opSpans is what the spans of one op add up to.
type opSpans struct {
	dur   map[string]int64 // summed duration by span name
	count map[string]int64
	// transfer is the op's gridftp.get or gridftp.put span; covered is
	// the part of it its child spans cover.
	transfer, covered int64
}

// analyse groups the spans by op, in op order.
func (t *tracer) analyse() []opSpans {
	t.mu.Lock()
	defer t.mu.Unlock()
	byOp := map[int32]*opSpans{}
	var order []int32
	children := map[int32][]span{}
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	for _, s := range t.spans {
		if s.End == 0 {
			continue // still open when the run ended
		}
		o := byOp[s.Op]
		if o == nil {
			o = &opSpans{dur: map[string]int64{}, count: map[string]int64{}}
			byOp[s.Op] = o
			order = append(order, s.Op)
		}
		o.dur[s.Name] += s.End - s.Start
		o.count[s.Name]++
		if s.Name == "gridftp.get" || s.Name == "gridftp.put" {
			o.transfer += s.End - s.Start
			o.covered += coveredBy(s, children[s.ID])
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	out := make([]opSpans, len(order))
	for i, op := range order {
		out[i] = *byOp[op]
	}
	return out
}

// coveredBy is the length of the union of the children's intervals,
// clipped to the parent: the parent's self time is its duration minus
// this.
func coveredBy(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	edge := parent.Start
	for _, k := range kids {
		start, end := k.Start, k.End
		if start < edge {
			start = edge
		}
		if end > parent.End {
			end = parent.End
		}
		if end > start {
			total += end - start
			edge = end
		}
	}
	return total
}
