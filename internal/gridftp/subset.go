package gridftp

import (
	"errors"
	"strings"
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
	src, path, err := sess.openSubset("ESUB", arg)
	if src == nil {
		return err
	}
	return sess.retrieve(path, src, nil)
}

// SubsetSize asks the server how large a subset would be without
// transferring it ("SIZE" has no spec; ESUB? replies in the 150 line, so
// we provide a dedicated query): "XSUB <spec> <path>".
func (c *Client) SubsetSize(path, spec string) (int64, error) {
	r, err := c.simple("XSUB ", spec, " ", path)
	if err != nil {
		return 0, err
	}
	return sizeReply("XSUB", r)
}

// cmdXsub serves the subset-size query.
func (sess *session) cmdXsub(arg string) error {
	src, _, err := sess.openSubset("XSUB", arg)
	if src == nil {
		return err
	}
	defer src.Close()
	return sess.ct.reply(codeSize, "%d", src.Size())
}

// openSubset opens the subset "<spec> <path>" names for the command
// verb. When it cannot, it replies, and src is nil and err the reply's
// error.
func (sess *session) openSubset(verb, arg string) (src Source, path string, err error) {
	spec, path, ok := strings.Cut(arg, " ")
	if !ok {
		return nil, "", sess.ct.reply(codeBadParam, "%s needs a spec and a path", verb)
	}
	ss, ok := sess.srv.cfg.Store.(SubsetStore)
	if !ok {
		return nil, "", sess.ct.reply(codeBadCmd, "%v", ErrNoSubset)
	}
	if src, err = ss.OpenSubset(path, spec); err != nil {
		return nil, "", sess.ct.reply(codeNoFile, "%v", err)
	}
	return src, path, nil
}

// GetSubset asks the server to evaluate spec against path and transfers
// only the extracted content into sink (which must be sized to the
// subset; use SubsetSize first).
func (c *Client) GetSubset(path, spec string, sink Sink) (TransferStats, error) {
	return c.get(path, sink, "ESUB ", spec, " ", path)
}
