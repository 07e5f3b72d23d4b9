// Package esgrpc is the request/response RPC layer standing in for the
// CORBA calls of the prototype (§4: "The CDAT system calls the RM via a
// CORBA protocol"; the RM in turn calls HRM the same way). Messages are
// JSON frames over any transport connection, optionally preceded by a GSI
// mutual authentication handshake, in which case the handler sees the
// authenticated peer subject.
package esgrpc

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"esgrid/internal/gsi"
	"esgrid/internal/transport"
	"esgrid/internal/vtime"
)

// Handler serves one method. params is the raw request payload; the
// returned value is marshalled as the result.
type Handler func(peer *gsi.Peer, params json.RawMessage) (any, error)

// Server dispatches method calls to registered handlers.
type Server struct {
	clk  vtime.Clock
	auth *gsi.Config // nil = unauthenticated

	mu       sync.Mutex
	handlers map[string]Handler
}

// NewServer creates a server; auth may be nil to skip authentication.
func NewServer(clk vtime.Clock, auth *gsi.Config) *Server {
	return &Server{clk: clk, auth: auth, handlers: map[string]Handler{}}
}

// Handle registers a handler for method.
func (s *Server) Handle(method string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[method] = h
}

// Serve accepts connections until the listener closes.
func (s *Server) Serve(l transport.Listener) {
	for {
		c, err := l.Accept()
		if err != nil {
			return
		}
		s.clk.Go(func() { s.handle(c) })
	}
}

type rpcRequest struct {
	ID     uint64          `json:"id"`
	Method string          `json:"method"`
	Params json.RawMessage `json:"params,omitempty"`
}

type rpcResponse struct {
	ID     uint64          `json:"id"`
	Result json.RawMessage `json:"result,omitempty"`
	Err    string          `json:"err,omitempty"`
}

func (s *Server) handle(c transport.Conn) {
	defer c.Close()
	var peer *gsi.Peer
	if s.auth != nil {
		p, err := s.auth.Server(c)
		if err != nil {
			return
		}
		peer = p
	}
	br := bufio.NewReader(c)
	for {
		var req rpcRequest
		if err := transport.ReadJSON(br, &req); err != nil {
			return
		}
		s.mu.Lock()
		h := s.handlers[req.Method]
		s.mu.Unlock()
		resp := rpcResponse{ID: req.ID}
		if h == nil {
			resp.Err = fmt.Sprintf("esgrpc: unknown method %q", req.Method)
		} else {
			result, err := h(peer, req.Params)
			if err != nil {
				resp.Err = err.Error()
			} else if result != nil {
				raw, err := json.Marshal(result)
				if err != nil {
					resp.Err = "esgrpc: marshal result: " + err.Error()
				} else {
					resp.Result = raw
				}
			}
		}
		if err := transport.WriteJSON(c, &resp); err != nil {
			return
		}
	}
}

// Client calls methods on a server over one connection. Calls are
// serialized on a clock-aware lock, so concurrent callers do not stall a
// simulated clock while one call's I/O is in flight.
type Client struct {
	mu   sync.Mutex
	cond vtime.Cond
	busy bool
	conn transport.Conn
	br   *bufio.Reader
	next uint64
	peer *gsi.Peer
}

// Dial connects on clk and (if auth is non-nil) authenticates.
func Dial(clk vtime.Clock, d transport.Dialer, addr string, auth *gsi.Config) (*Client, error) {
	if clk == nil {
		clk = vtime.Real{}
	}
	c, err := d.Dial(addr)
	if err != nil {
		return nil, err
	}
	cli := &Client{conn: c, br: bufio.NewReader(c)}
	cli.cond = clk.NewCond(&cli.mu)
	if auth != nil {
		p, err := auth.Client(c)
		if err != nil {
			c.Close()
			return nil, err
		}
		cli.peer = p
	}
	return cli, nil
}

// Peer returns the authenticated server identity (nil without auth).
func (c *Client) Peer() *gsi.Peer { return c.peer }

// Close releases the connection.
func (c *Client) Close() error { return c.conn.Close() }

// RemoteError is a server-side failure string surfaced to the caller.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return e.Msg }

// Call invokes method with params, decoding the result into out (which
// may be nil to discard).
func (c *Client) Call(method string, params any, out any) error {
	c.mu.Lock()
	for c.busy {
		c.cond.Wait()
	}
	c.busy = true
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.busy = false
		c.cond.Signal()
		c.mu.Unlock()
	}()
	c.next++
	req := rpcRequest{ID: c.next, Method: method}
	if params != nil {
		raw, err := json.Marshal(params)
		if err != nil {
			return err
		}
		req.Params = raw
	}
	if err := transport.WriteJSON(c.conn, &req); err != nil {
		return err
	}
	var resp rpcResponse
	if err := transport.ReadJSON(c.br, &resp); err != nil {
		return err
	}
	if resp.ID != req.ID {
		return errors.New("esgrpc: response id mismatch")
	}
	if resp.Err != "" {
		return &RemoteError{Msg: resp.Err}
	}
	if out != nil && resp.Result != nil {
		return json.Unmarshal(resp.Result, out)
	}
	return nil
}
