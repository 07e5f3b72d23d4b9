package transport

import (
	"bytes"
	"net"
	"strings"
	"sync"
	"testing"
)

func TestSplitHostPort(t *testing.T) {
	cases := []struct {
		in   string
		host string
		port int
	}{
		{"lbnl:2811", "lbnl", 2811},
		{"127.0.0.1:80", "127.0.0.1", 80},
		{"bare-host", "bare-host", 0},
		{":2811", "", 2811},
		{"host:bad", "host", 0},
	}
	for _, c := range cases {
		h, p := SplitHostPort(c.in)
		if h != c.host || p != c.port {
			t.Errorf("SplitHostPort(%q) = (%q, %d), want (%q, %d)", c.in, h, p, c.host, c.port)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msgs := [][]byte{[]byte("hello"), {}, []byte(strings.Repeat("x", 70000))}
	for _, m := range msgs {
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range msgs {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame = %d bytes, want %d", len(got), len(want))
		}
	}
}

func TestFrameLimit(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, make([]byte, MaxFrameBytes+1)); err == nil {
		t.Fatal("oversized frame written")
	}
	// A corrupt length prefix must be rejected, not allocated.
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("corrupt length accepted")
	}
}

func TestJSONFrames(t *testing.T) {
	var buf bytes.Buffer
	type msg struct {
		Op   string `json:"op"`
		Size int64  `json:"size"`
	}
	if err := WriteJSON(&buf, msg{"stage", 1 << 31}); err != nil {
		t.Fatal(err)
	}
	var got msg
	if err := ReadJSON(&buf, &got); err != nil {
		t.Fatal(err)
	}
	if got.Op != "stage" || got.Size != 1<<31 {
		t.Fatalf("got %+v", got)
	}
}

func TestVirtualFallbackOverRealTCP(t *testing.T) {
	// Real TCP conns have no virtual fast path; the helpers must fall
	// back to moving real (zero) bytes.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 1 << 20
	var wg sync.WaitGroup
	wg.Add(1)
	var got int64
	var rerr error
	go func() {
		defer wg.Done()
		c, err := l.Accept()
		if err != nil {
			rerr = err
			return
		}
		defer c.Close()
		got, rerr = ReadVirtualFrom(c, n)
	}()
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sent, err := WriteVirtualTo(c, n)
	if err != nil || sent != n {
		t.Fatalf("sent %d, %v", sent, err)
	}
	c.Close()
	wg.Wait()
	if rerr != nil || got != n {
		t.Fatalf("got %d, %v", got, rerr)
	}
}

func TestRealNetworkListenDial(t *testing.T) {
	var netw Network = Real{}
	l, err := netw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			done <- err
			return
		}
		c.Write([]byte("hi"))
		c.Close()
		done <- nil
	}()
	c, err := netw.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := make([]byte, 2)
	if _, err := c.Read(buf); err != nil || string(buf) != "hi" {
		t.Fatalf("read %q, %v", buf, err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
