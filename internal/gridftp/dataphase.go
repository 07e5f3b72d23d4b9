package gridftp

import (
	"sync"

	"esgrid/internal/transport"
	"esgrid/internal/vtime"
)

// dataPhase is the block-moving part of one MODE E transfer (§6.1), the
// same on both ends of RETR, ERET, ESUB and STOR: one worker per data
// connection, each either writing its stripe node's share of blocks and
// then EOD (a send phase) or reading blocks until EOD (a receive phase).
// The workers latch the first error and the bytes received.
type dataPhase struct {
	wg *vtime.WaitGroup

	// A send phase deals blocks round-robin to nodes stripe nodes and
	// reads them from src; a receive phase writes into sink.
	src    Source
	blocks []Extent
	nodes  int
	sink   Sink

	mu    sync.Mutex
	bytes int64
	err   error
}

// sendPhase returns a phase that sends ranges of src in blocks of at
// most blockSize bytes over nodes stripe nodes.
func sendPhase(clk vtime.Clock, src Source, ranges []Extent, blockSize int64, nodes int) *dataPhase {
	return &dataPhase{wg: vtime.NewWaitGroup(clk), src: src, blocks: partitionRanges(ranges, blockSize), nodes: nodes}
}

// receivePhase returns a phase that receives blocks into sink.
func receivePhase(clk vtime.Clock, sink Sink) *dataPhase {
	return &dataPhase{wg: vtime.NewWaitGroup(clk), sink: sink}
}

// start starts one worker on each of node's data connections. A send
// phase's workers on one node pull from that node's share of blocks.
func (p *dataPhase) start(node int, conns []transport.Conn) {
	if p.src == nil {
		for _, c := range conns {
			p.wg.Go(func() { p.done(receiveBlocks(c, p.sink)) })
		}
		return
	}
	share := dealBlocks(p.blocks, node, p.nodes)
	for _, c := range conns {
		p.wg.Go(func() { p.done(0, sendBlocks(c, p.src, share)) })
	}
}

// startEach obtains each node's data connections in turn with conns and
// starts their workers before it obtains the next node's. The first
// error ends the loop and is latched; the workers already started run
// on, and wait waits for them.
func (p *dataPhase) startEach(nodes int, conns func(node int) ([]transport.Conn, error)) {
	for i := 0; i < nodes; i++ {
		cs, err := conns(i)
		if err != nil {
			p.done(0, err)
			return
		}
		p.start(i, cs)
	}
}

// done adds a worker's bytes and latches its error if it is the first.
func (p *dataPhase) done(n int64, err error) {
	p.mu.Lock()
	p.bytes += n
	if err != nil && p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
}

// wait waits for every worker and returns the bytes received and the
// first error.
func (p *dataPhase) wait() (int64, error) {
	p.wg.Wait()
	return p.bytes, p.err
}

// dealBlocks returns node's round-robin share of blocks among nodes,
// pre-filled and closed so the node's workers never block on it.
func dealBlocks(blocks []Extent, node, nodes int) <-chan Extent {
	share := make(chan Extent, len(blocks)/nodes+1)
	for i := node; i < len(blocks); i += nodes {
		share <- blocks[i]
	}
	close(share)
	return share
}

// sendBlocks writes MODE E blocks from share to conn, reading their
// content from src, and then an EOD block.
func sendBlocks(conn transport.Conn, src Source, share <-chan Extent) error {
	for blk := range share {
		if err := writeBlockHeader(conn, blockHeader{Len: uint64(blk.Len), Off: uint64(blk.Off)}); err != nil {
			return err
		}
		if err := src.SendRange(conn, blk.Off, blk.Len); err != nil {
			return err
		}
	}
	return writeBlockHeader(conn, blockHeader{Flags: flagEOD})
}

// receiveBlocks reads MODE E blocks from conn into sink until an EOD
// block arrives and returns the payload bytes it received.
func receiveBlocks(conn transport.Conn, sink Sink) (int64, error) {
	var n int64
	for {
		hdr, err := readBlockHeader(conn)
		if err != nil {
			return n, err
		}
		if hdr.Flags&flagEOD != 0 {
			return n, nil
		}
		if err := sink.ReceiveRange(conn, int64(hdr.Off), int64(hdr.Len)); err != nil {
			return n, err
		}
		n += int64(hdr.Len)
	}
}

// partitionRanges splits ranges into blocks of at most blockSize bytes.
func partitionRanges(ranges []Extent, blockSize int64) []Extent {
	var out []Extent
	for _, r := range ranges {
		off, n := r.Off, r.Len
		for n > 0 {
			c := blockSize
			if n < c {
				c = n
			}
			out = append(out, Extent{Off: off, Len: c})
			off += c
			n -= c
		}
	}
	return out
}
