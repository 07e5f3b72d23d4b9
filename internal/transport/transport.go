// Package transport abstracts the network layer under ESG's protocols so
// that the same GridFTP / RPC / directory code runs over real TCP (the
// cmd/ daemons, loopback integration tests) and over the virtual-time WAN
// simulator in internal/simnet (the paper's experiments).
//
// The interfaces mirror the net package. The one extension is the virtual
// payload fast path (VirtualWriter / VirtualReader): a simulated
// connection can account for bulk data by length alone, so replaying the
// 230.8 GB Table 1 hour costs neither memory nor memcpy. Protocol headers
// remain real bytes on both transports.
package transport

import "net"

// Conn is a bidirectional byte stream; it is exactly net.Conn so real TCP
// connections satisfy it untouched.
type Conn = net.Conn

// Listener accepts inbound connections, mirroring net.Listener.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	Addr() net.Addr
}

// Dialer opens outbound connections. Implementations: RealDialer (TCP)
// and simnet.Host (simulated WAN).
type Dialer interface {
	// Dial connects to addr, a "host:port" string resolved by the
	// implementation's name service.
	Dial(addr string) (Conn, error)
}

// Network combines the client and server halves of a transport endpoint.
type Network interface {
	Dialer
	// Listen announces on the given local address ("host:port" or ":port").
	Listen(addr string) (Listener, error)
}

// VirtualWriter is implemented by simulated connections that can transfer
// payload by length alone. WriteVirtual behaves like Write of n bytes of
// payload (it blocks until the simulated network has carried them, and
// consumes simulated bandwidth) without any real bytes changing hands.
type VirtualWriter interface {
	WriteVirtual(n int64) error
}

// VirtualReader is the receiving half of the virtual payload fast path.
// ReadVirtual consumes up to max bytes of pending virtual payload,
// blocking until at least one byte (or an error) is available.
type VirtualReader interface {
	ReadVirtual(max int64) (int64, error)
}

// Labeler is implemented by connections that can carry an opaque
// diagnostic label — a life-line trace context ("<trace>.<span>") set by
// the protocol layer. Simulated connections report the label in flow
// retirement events so per-request network activity is attributable.
type Labeler interface {
	SetLabel(label string)
}

// Real is the production Network backed by the operating system's TCP
// stack. The zero value is ready to use.
type Real struct{}

// Dial implements Dialer over TCP.
func (Real) Dial(addr string) (Conn, error) { return net.Dial("tcp", addr) }

// Listen implements Network over TCP.
func (Real) Listen(addr string) (Listener, error) { return net.Listen("tcp", addr) }

// WriteVirtualTo sends n bytes of payload over c, using the virtual fast
// path when available and a zero-filled buffer otherwise. It returns the
// bytes written.
func WriteVirtualTo(c Conn, n int64) (int64, error) {
	if vw, ok := c.(VirtualWriter); ok {
		if err := vw.WriteVirtual(n); err != nil {
			return 0, err
		}
		return n, nil
	}
	var buf [32 * 1024]byte
	var sent int64
	for sent < n {
		chunk := int64(len(buf))
		if rem := n - sent; rem < chunk {
			chunk = rem
		}
		m, err := c.Write(buf[:chunk])
		sent += int64(m)
		if err != nil {
			return sent, err
		}
	}
	return sent, nil
}

// ReadVirtualFrom consumes exactly n bytes of payload from c, using the
// virtual fast path when available and discarding real bytes otherwise.
func ReadVirtualFrom(c Conn, n int64) (int64, error) {
	if vr, ok := c.(VirtualReader); ok {
		var got int64
		for got < n {
			m, err := vr.ReadVirtual(n - got)
			got += m
			if err != nil {
				return got, err
			}
		}
		return got, nil
	}
	var buf [32 * 1024]byte
	var got int64
	for got < n {
		chunk := int64(len(buf))
		if rem := n - got; rem < chunk {
			chunk = rem
		}
		m, err := c.Read(buf[:chunk])
		got += int64(m)
		if err != nil {
			return got, err
		}
	}
	return got, nil
}

// SplitHostPort splits "host:port" into host and port, tolerating a
// missing port (port 0). It is a forgiving variant of net.SplitHostPort
// for the simulator's flat namespace.
func SplitHostPort(addr string) (host string, port int) {
	h, p, err := net.SplitHostPort(addr)
	if err != nil {
		return addr, 0
	}
	n := 0
	for _, c := range p {
		if c < '0' || c > '9' {
			return h, 0
		}
		n = n*10 + int(c-'0')
	}
	return h, n
}
