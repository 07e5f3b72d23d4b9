package gridftp

import (
	"errors"
	"strings"
	"sync"

	"esgrid/internal/vtime"
)

// ErrNoSubset is returned when the server's store cannot evaluate
// server-side subsetting.
var ErrNoSubset = errors.New("gridftp: store does not support server-side subsetting")

// SubsetStore is the optional store capability behind the ESUB command:
// ESG-II style server-side extraction and subsetting (§9: "some data
// analysis operations (at least extraction and subsetting, similar to
// those available with DODS) can be performed local to the data before it
// is transferred over the network"). The spec syntax is defined by the
// store (internal/subset uses "var=tas;time=0:4;lat=-30:30;lon=0:180").
type SubsetStore interface {
	// OpenSubset evaluates spec against the named file and returns the
	// extracted content as a Source.
	OpenSubset(name, spec string) (Source, error)
}

// cmdEsub serves "ESUB <spec> <path>": evaluate the subset server-side
// and transfer only the result.
func (sess *session) cmdEsub(arg string) error {
	spec, path, ok := strings.Cut(arg, " ")
	if !ok {
		return sess.ct.reply(codeBadParam, "ESUB needs a spec and a path")
	}
	ss, ok := sess.srv.cfg.Store.(SubsetStore)
	if !ok {
		return sess.ct.reply(codeBadCmd, "%v", ErrNoSubset)
	}
	src, err := ss.OpenSubset(path, spec)
	if err != nil {
		return sess.ct.reply(codeNoFile, "%v", err)
	}
	defer src.Close()
	if err := sess.ct.reply(codeOpenData, "opening data connection(s); subset is %d bytes", src.Size()); err != nil {
		return err
	}
	if err := sess.runSend(src, []Extent{{Off: 0, Len: src.Size()}}); err != nil {
		return sess.ct.reply(codeXferFailed, "transfer failed: %v", err)
	}
	sess.afterTransfer()
	return sess.ct.reply(codeTransferOK, "subset transfer complete")
}

// SubsetSize asks the server how large a subset would be without
// transferring it ("SIZE" has no spec; ESUB? replies in the 150 line, so
// we provide a dedicated query): "XSUB <spec> <path>".
func (c *Client) SubsetSize(path, spec string) (int64, error) {
	r, err := c.simple("XSUB ", spec, " ", path)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, f := range strings.Fields(string(r.Text)) {
		if v, err := parseInt64(f); err == nil {
			n = v
		}
	}
	return n, nil
}

func parseInt64(s string) (int64, error) {
	var n int64
	if len(s) == 0 {
		return 0, errors.New("empty")
	}
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, errors.New("not a number")
		}
		n = n*10 + int64(c-'0')
	}
	return n, nil
}

// cmdXsub serves the subset-size query.
func (sess *session) cmdXsub(arg string) error {
	spec, path, ok := strings.Cut(arg, " ")
	if !ok {
		return sess.ct.reply(codeBadParam, "XSUB needs a spec and a path")
	}
	ss, ok := sess.srv.cfg.Store.(SubsetStore)
	if !ok {
		return sess.ct.reply(codeBadCmd, "%v", ErrNoSubset)
	}
	src, err := ss.OpenSubset(path, spec)
	if err != nil {
		return sess.ct.reply(codeNoFile, "%v", err)
	}
	defer src.Close()
	return sess.ct.reply(codeSize, "%d", src.Size())
}

// GetSubset asks the server to evaluate spec against path and transfers
// only the extracted content into sink (which must be sized to the
// subset; use SubsetSize first).
func (c *Client) GetSubset(path, spec string, sink Sink) (TransferStats, error) {
	start := c.cfg.Clock.Now()
	addrs, err := c.negotiateData()
	if err != nil {
		return TransferStats{}, err
	}
	if err := c.ct.sendLine("ESUB ", spec, " ", path); err != nil {
		return TransferStats{}, err
	}
	r, err := c.ct.readResponse()
	if err != nil {
		return TransferStats{}, err
	}
	if r.Code != codeOpenData {
		return TransferStats{}, r.err()
	}
	var total int64
	var mu sync.Mutex
	var firstErr error
	wg := vtime.NewWaitGroup(c.cfg.Clock)
	for _, addr := range addrs {
		conns, err := c.dataConns(addr, c.cfg.Parallelism)
		if err != nil {
			mu.Lock()
			firstErr = err
			mu.Unlock()
			break
		}
		for _, dc := range conns {
			dc := dc
			wg.Go(func() {
				n, err := receiveBlocksCounted(dc, sink)
				mu.Lock()
				total += n
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			})
		}
	}
	wg.Wait()
	if firstErr != nil {
		c.dropDataConns(addrs)
		return TransferStats{Bytes: total}, firstErr
	}
	if r, err = c.ct.readResponse(); err != nil {
		return TransferStats{Bytes: total}, err
	}
	if r.Code != codeTransferOK {
		return TransferStats{Bytes: total}, r.err()
	}
	if !c.cfg.CacheDataChannels {
		c.dropDataConns(addrs)
	}
	return TransferStats{
		Bytes:    total,
		Duration: c.cfg.Clock.Now().Sub(start),
		Streams:  c.cfg.Parallelism * len(addrs),
		Stripes:  len(addrs),
	}, nil
}
