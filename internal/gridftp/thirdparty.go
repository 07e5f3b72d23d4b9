package gridftp

import (
	"fmt"
	"strconv"
)

// ThirdParty performs a client-mediated server-to-server transfer (§6.1:
// "third-party control of data transfer that allows a user or application
// at one site to initiate, monitor and control a data transfer operation
// between two other sites").
//
// The destination server is put into passive mode and told to STOR; the
// source server is given the destination's data address with PORT and
// told to RETR; the mediating client never touches the payload. Both
// clients should be configured with the same Parallelism.
func ThirdParty(src, dst *Client, srcPath, dstPath string) (TransferStats, error) {
	start := src.cfg.Clock.Now()
	size, err := src.Size(srcPath)
	if err != nil {
		return TransferStats{}, fmt.Errorf("gridftp: third-party size: %w", err)
	}
	if _, err := dst.exchange(strconv.AppendInt(dst.ct.line("ALLO "), size, 10)); err != nil {
		return TransferStats{}, err
	}
	addrs, err := dst.negotiateData()
	if err != nil {
		return TransferStats{}, err
	}
	if _, err := src.simple("PORT ", addrs[0]); err != nil {
		return TransferStats{}, err
	}
	if err := dst.ct.sendLine("STOR ", dstPath); err != nil {
		return TransferStats{}, err
	}
	r, err := dst.ct.readResponse()
	if err != nil {
		return TransferStats{}, err
	}
	if r.Code != codeOpenData {
		return TransferStats{}, r.err()
	}
	if err := src.ct.sendLine("RETR ", srcPath); err != nil {
		return TransferStats{}, err
	}
	if r, err = src.ct.readResponse(); err != nil {
		return TransferStats{}, err
	}
	if r.Code != codeOpenData {
		return TransferStats{}, r.err()
	}
	// Both servers now move data directly; wait for both completions.
	if r, err = src.ct.readResponse(); err != nil {
		return TransferStats{}, err
	}
	if r.Code != codeTransferOK {
		return TransferStats{}, r.err()
	}
	if r, err = dst.ct.readResponse(); err != nil {
		return TransferStats{}, err
	}
	if r.Code != codeTransferOK {
		return TransferStats{}, r.err()
	}
	return TransferStats{
		Bytes:    size,
		Duration: src.cfg.Clock.Now().Sub(start),
		Streams:  src.cfg.Parallelism,
		Stripes:  1,
	}, nil
}
