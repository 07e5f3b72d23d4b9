package gridftp

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"io"
	"testing"
	"testing/quick"
	"time"

	"esgrid/internal/gsi"
	"esgrid/internal/transport"
	"esgrid/internal/vtime"
)

// --- pure unit tests ---

func TestPartitionRanges(t *testing.T) {
	blocks := partitionRanges([]Extent{{0, 10}, {100, 5}}, 4)
	want := []Extent{{0, 4}, {4, 4}, {8, 2}, {100, 4}, {104, 1}}
	if len(blocks) != len(want) {
		t.Fatalf("blocks = %v", blocks)
	}
	for i := range want {
		if blocks[i] != want[i] {
			t.Fatalf("blocks = %v, want %v", blocks, want)
		}
	}
}

func TestParseFormatRanges(t *testing.T) {
	rs, err := ParseRanges("0:10,100:5")
	if err != nil {
		t.Fatal(err)
	}
	if FormatRanges(rs) != "0:10,100:5" {
		t.Fatalf("round trip = %q", FormatRanges(rs))
	}
	for _, bad := range []string{"", "x", "5", "-1:5", "5:0", "1:2,"} {
		if _, err := ParseRanges(bad); err == nil {
			t.Errorf("ParseRanges(%q) succeeded", bad)
		}
	}
}

func TestMissingRanges(t *testing.T) {
	sink := NewVirtualSink(100)
	if got := MissingRanges(sink, 100); len(got) != 1 || got[0] != (Extent{0, 100}) {
		t.Fatalf("empty sink: %v", got)
	}
	sink.ext.add(10, 20)
	sink.ext.add(50, 10)
	got := MissingRanges(sink, 100)
	want := []Extent{{0, 10}, {30, 20}, {60, 40}}
	if len(got) != len(want) {
		t.Fatalf("missing = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("missing = %v, want %v", got, want)
		}
	}
}

// Property: any sequence of added extents coalesces into a sorted,
// disjoint set whose total coverage equals the union.
func TestQuickExtentSetCoalescing(t *testing.T) {
	check := func(raw []uint16) bool {
		var s extentSet
		covered := map[int64]bool{}
		for i := 0; i+1 < len(raw); i += 2 {
			off := int64(raw[i] % 512)
			n := int64(raw[i+1]%64) + 1
			s.add(off, n)
			for b := off; b < off+n; b++ {
				covered[b] = true
			}
		}
		ext := s.covered()
		var total int64
		for i, e := range ext {
			total += e.Len
			if i > 0 {
				prev := ext[i-1]
				if e.Off <= prev.Off+prev.Len {
					return false // overlapping or touching extents not merged
				}
			}
			for b := e.Off; b < e.Off+e.Len; b++ {
				if !covered[b] {
					return false
				}
			}
		}
		return total == int64(len(covered))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// --- real-TCP integration tests (loopback, real bytes) ---

type realEnv struct {
	store  *MemStore
	srv    *Server
	addr   string
	trust  *gsi.TrustStore
	ca     *gsi.CA
	userID *gsi.Identity
}

func startRealServer(t *testing.T, withAuth bool) *realEnv {
	t.Helper()
	env := &realEnv{store: NewMemStore()}
	var auth *gsi.Config
	if withAuth {
		ca, err := gsi.NewCA("ESG-CA")
		if err != nil {
			t.Fatal(err)
		}
		env.ca = ca
		env.trust = gsi.NewTrustStore(ca)
		srvID, _ := ca.Issue("/CN=gridftp-server", time.Now(), time.Hour)
		env.userID, _ = ca.Issue("/CN=user", time.Now(), time.Hour)
		auth = &gsi.Config{Identity: srvID, Trust: env.trust}
	}
	env.srv, env.addr = serveReal(t, Config{Store: env.store, Auth: auth})
	return env
}

// serveReal starts a server with cfg on a loopback port, over real TCP
// and the wall clock, and returns it with its control address.
func serveReal(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	cfg.Clock, cfg.Net, cfg.Host = vtime.Real{}, transport.Real{}, "127.0.0.1"
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := transport.Real{}.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { l.Close() })
	return srv, l.Addr().String()
}

func realClient(t *testing.T, env *realEnv, parallelism int) *Client {
	t.Helper()
	var auth *gsi.Config
	if env.trust != nil {
		auth = &gsi.Config{Identity: env.userID, Trust: env.trust}
	}
	c, err := Dial(ClientConfig{
		Clock:       vtime.Real{},
		Net:         transport.Real{},
		Auth:        auth,
		Parallelism: parallelism,
	}, env.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*131 + i>>8)
	}
	return b
}

func TestRealGetSingleStream(t *testing.T) {
	env := startRealServer(t, false)
	data := pattern(3 << 20)
	env.store.Put("pcm.tas.1998-01.nc", data)
	c := realClient(t, env, 1)
	size, err := c.Size("pcm.tas.1998-01.nc")
	if err != nil || size != int64(len(data)) {
		t.Fatalf("size = %d, %v", size, err)
	}
	sink := NewBytesSink(size)
	st, err := c.Get("pcm.tas.1998-01.nc", sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Complete(); err != nil {
		t.Fatal(err)
	}
	if st.Bytes != size {
		t.Fatalf("stats bytes = %d", st.Bytes)
	}
	if sha256.Sum256(sink.Bytes()) != sha256.Sum256(data) {
		t.Fatal("content corrupted")
	}
}

func TestRealGetParallelStreams(t *testing.T) {
	env := startRealServer(t, false)
	data := pattern(8 << 20)
	env.store.Put("big.nc", data)
	c := realClient(t, env, 4)
	sink := NewBytesSink(int64(len(data)))
	st, err := c.Get("big.nc", sink)
	if err != nil {
		t.Fatal(err)
	}
	if st.Streams != 4 {
		t.Fatalf("streams = %d, want 4", st.Streams)
	}
	if err := sink.Complete(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sink.Bytes(), data) {
		t.Fatal("parallel reassembly corrupted content")
	}
}

func TestRealPartialRetrieve(t *testing.T) {
	env := startRealServer(t, false)
	data := pattern(1 << 20)
	env.store.Put("f.nc", data)
	c := realClient(t, env, 2)
	ranges := []Extent{{Off: 1000, Len: 5000}, {Off: 500000, Len: 1234}}
	sink := NewBytesSink(int64(len(data)))
	if _, err := c.GetRanges("f.nc", sink, ranges); err != nil {
		t.Fatal(err)
	}
	got := sink.Received()
	if len(got) != 2 || got[0] != ranges[0] || got[1] != ranges[1] {
		t.Fatalf("received extents = %v", got)
	}
	if !bytes.Equal(sink.Bytes()[1000:6000], data[1000:6000]) {
		t.Fatal("partial content wrong")
	}
}

func TestRealPut(t *testing.T) {
	env := startRealServer(t, false)
	data := pattern(2 << 20)
	c := realClient(t, env, 2)
	if _, err := c.Put("upload.nc", NewBytesSource(data)); err != nil {
		t.Fatal(err)
	}
	got, ok := env.store.Get("upload.nc")
	if !ok || !bytes.Equal(got, data) {
		t.Fatal("uploaded content wrong")
	}
}

func TestRealAuthRequired(t *testing.T) {
	env := startRealServer(t, true)
	// An unauthenticated client is rejected at session setup: every
	// command before AUTH GSI draws a 530.
	_, err := Dial(ClientConfig{Clock: vtime.Real{}, Net: transport.Real{}}, env.addr)
	var re *ReplyError
	if !errors.As(err, &re) || re.Code != codeNotAuthed {
		t.Fatalf("unauthenticated dial err = %v, want 530", err)
	}
	// Authenticated client works, and sees the server identity.
	ac := realClient(t, env, 1)
	if ac.Peer() == nil || ac.Peer().Subject != "/CN=gridftp-server" {
		t.Fatalf("peer = %+v", ac.Peer())
	}
	env.store.Put("ok.nc", pattern(1024))
	sink := NewBytesSink(1024)
	if _, err := ac.Get("ok.nc", sink); err != nil {
		t.Fatal(err)
	}
	if err := sink.Complete(); err != nil {
		t.Fatal(err)
	}
}

func TestRealAuthRejectsUntrusted(t *testing.T) {
	env := startRealServer(t, true)
	rogueCA, _ := gsi.NewCA("Rogue")
	rogueID, _ := rogueCA.Issue("/CN=mallory", time.Now(), time.Hour)
	rogueTrust := gsi.NewTrustStore(env.ca)
	_, err := Dial(ClientConfig{
		Clock: vtime.Real{}, Net: transport.Real{},
		Auth: &gsi.Config{Identity: rogueID, Trust: rogueTrust},
	}, env.addr)
	if err == nil {
		t.Fatal("untrusted client authenticated")
	}
}

func TestRealRestartWithMissingRanges(t *testing.T) {
	env := startRealServer(t, false)
	data := pattern(4 << 20)
	env.store.Put("f.nc", data)
	c := realClient(t, env, 2)
	size := int64(len(data))
	sink := NewBytesSink(size)
	// Fetch only part, as an interrupted transfer would have.
	if _, err := c.GetRanges("f.nc", sink, []Extent{{0, size / 3}}); err != nil {
		t.Fatal(err)
	}
	missing := MissingRanges(sink, size)
	if len(missing) != 1 || missing[0].Off != size/3 {
		t.Fatalf("missing = %v", missing)
	}
	if _, err := c.GetRanges("f.nc", sink, missing); err != nil {
		t.Fatal(err)
	}
	if err := sink.Complete(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sink.Bytes(), data) {
		t.Fatal("restarted content wrong")
	}
}

func TestRealChannelCachingReuse(t *testing.T) {
	env := startRealServer(t, false)
	env.store.Put("a.nc", pattern(256<<10))
	var auth *gsi.Config
	c, err := Dial(ClientConfig{
		Clock: vtime.Real{}, Net: transport.Real{}, Auth: auth,
		Parallelism: 2, CacheDataChannels: true,
	}, env.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		sink := NewBytesSink(256 << 10)
		if _, err := c.Get("a.nc", sink); err != nil {
			t.Fatalf("transfer %d: %v", i, err)
		}
		if err := sink.Complete(); err != nil {
			t.Fatalf("transfer %d: %v", i, err)
		}
	}
	// With caching on, the pool must retain the data conns.
	c.mu.Lock()
	pooled := 0
	for _, conns := range c.pools {
		pooled += len(conns)
	}
	c.mu.Unlock()
	if pooled != 2 {
		t.Fatalf("pooled conns = %d, want 2", pooled)
	}
}

func TestRealFeaturesAndErrors(t *testing.T) {
	env := startRealServer(t, false)
	c := realClient(t, env, 1)
	r, err := c.simple("FEAT")
	if err != nil {
		t.Fatal(err)
	}
	feats := r.Body
	found := false
	for _, f := range feats {
		if f == "PARALLELISM" {
			found = true
		}
	}
	if !found {
		t.Fatalf("features = %v", feats)
	}
	if _, err := c.Size("missing.nc"); err == nil {
		t.Fatal("SIZE of missing file succeeded")
	}
	var re *ReplyError
	sink := NewBytesSink(10)
	if _, err := c.Get("missing.nc", sink); !errors.As(err, &re) || re.Code != codeNoFile {
		t.Fatalf("Get missing: %v", err)
	}
	// Out-of-range ERET is rejected cleanly, also when the range's end
	// wraps past the largest int64.
	env.store.Put("small.nc", pattern(100))
	for _, r := range []Extent{{90, 20}, {1 << 62, 1 << 62}} {
		if _, err := c.GetRanges("small.nc", NewBytesSink(100), []Extent{r}); !errors.As(err, &re) || re.Code != codeBadParam {
			t.Fatalf("ERET of %+v: %v, want a %d reply", r, err, codeBadParam)
		}
	}
}

// halfSource sends half of each range and then fails, as a disk error
// or a file that shrank under the transfer would.
type halfSource struct{ Source }

func (s halfSource) SendRange(c transport.Conn, off, n int64) error {
	if err := s.Source.SendRange(c, off, n/2); err != nil {
		return err
	}
	return io.ErrUnexpectedEOF
}

// halfStore serves every file, and every subset of it, through
// halfSource.
type halfStore struct{ *MemStore }

func (s halfStore) Open(name string) (Source, error) {
	src, err := s.MemStore.Open(name)
	if err != nil {
		return nil, err
	}
	return halfSource{src}, nil
}

func (s halfStore) OpenSubset(name, spec string) (Source, error) { return s.Open(name) }

// within runs f and fails the test if f has not returned in ten
// seconds, so a transfer that hangs fails rather than stalls go test.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s hung", what)
	}
}

// A server whose source fails halfway through a block ends the data
// phase: each retrieval returns an error, and the session is left in
// step for the next command.
func TestRealSourceFailureEndsTransfer(t *testing.T) {
	store := NewMemStore()
	data := pattern(1 << 20)
	size := int64(len(data))
	store.Put("f.nc", data)
	_, addr := serveReal(t, Config{Store: halfStore{store}})
	for _, tc := range []struct {
		name string
		get  func(*Client, Sink) (TransferStats, error)
	}{
		{"Get", func(c *Client, s Sink) (TransferStats, error) { return c.Get("f.nc", s) }},
		{"GetRanges", func(c *Client, s Sink) (TransferStats, error) { return c.GetRanges("f.nc", s, []Extent{{0, size}}) }},
		{"GetSubset", func(c *Client, s Sink) (TransferStats, error) { return c.GetSubset("f.nc", "var=tas", s) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Dial(ClientConfig{Clock: vtime.Real{}, Net: transport.Real{}, Parallelism: 2}, addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			var getErr, sizeErr error
			var n int64
			within(t, tc.name, func() {
				_, getErr = tc.get(c, NewBytesSink(size))
				n, sizeErr = c.Size("f.nc")
			})
			if getErr == nil {
				t.Errorf("%s from a failing source succeeded", tc.name)
			}
			if sizeErr != nil || n != size {
				t.Errorf("Size after a failed %s = %d, %v; want %d", tc.name, n, sizeErr, size)
			}
		})
	}
}

// A Put whose data connection is cut reads the server's failure reply,
// so the next command on the session gets its own reply.
func TestRealPutFailureKeepsSessionInStep(t *testing.T) {
	env := startRealServer(t, false)
	data := pattern(1 << 20)
	env.store.Put("f.nc", data)
	c := realClient(t, env, 2)
	var putErr, sizeErr error
	var n int64
	within(t, "Put", func() {
		_, putErr = c.Put("cut.nc", cutSource{NewBytesSource(data)})
		n, sizeErr = c.Size("f.nc")
	})
	if putErr == nil {
		t.Fatal("Put over a cut connection succeeded")
	}
	if sizeErr != nil || n != int64(len(data)) {
		t.Fatalf("Size after a failed Put = %d, %v; want %d", n, sizeErr, len(data))
	}
}
