package gridftp

import (
	"fmt"
	"strconv"
	"time"

	"esgrid/internal/vtime"
)

// Provenance site tag(s) for the delays this package schedules on
// the virtual clock (flight-recorder attribution).
var siteRetryBackoff = vtime.RegisterSite("gridftp.retry-backoff")

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

// GetWithRetry drives Get with extent-based restart on clk: after a
// transient failure it redials the control session if needed, waits out
// the backoff, and re-requests only the missing ranges, up to
// maxAttempts. This is the "reliable, restartable data transfer"
// behaviour of §6.1 that Figure 8 demonstrates across network outages.
// It returns the aggregate stats, the number of attempts used, and the
// final error, if any.
func GetWithRetry(clk vtime.Clock, mk func() (*Client, error), path string, sink Sink, size int64, maxAttempts int, backoff time.Duration) (TransferStats, int, error) {
	var agg TransferStats
	var cli *Client
	defer func() {
		if cli != nil {
			cli.Close()
		}
	}()
	var lastErr error
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		if attempt > 1 && backoff > 0 {
			vtime.SleepTagged(clk, siteRetryBackoff, backoff)
		}
		if cli == nil {
			c, err := mk()
			if err != nil {
				// New session cannot be created (DNS down, power failure):
				// back off and retry.
				lastErr = err
				continue
			}
			cli = c
		}
		missing := MissingRanges(sink, size)
		if len(missing) == 0 {
			return agg, attempt - 1, nil
		}
		var st TransferStats
		var err error
		if len(missing) == 1 && missing[0].Off == 0 && missing[0].Len == size {
			st, err = cli.Get(path, sink)
		} else {
			st, err = cli.GetRanges(path, sink, missing)
		}
		agg.Bytes += st.Bytes
		agg.Duration += st.Duration
		if st.Streams > agg.Streams {
			agg.Streams = st.Streams
			agg.Stripes = st.Stripes
		}
		if err == nil {
			return agg, attempt, nil
		}
		lastErr = err
		// The control session may be dead; rebuild it next attempt.
		cli.Close()
		cli = nil
	}
	return agg, maxAttempts, fmt.Errorf("gridftp: transfer failed after %d attempts: %w", maxAttempts, lastErr)
}
