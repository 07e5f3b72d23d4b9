// Package hrm implements the Hierarchical Resource Manager of §4: the
// component that fronts a mass storage system (HPSS at LBNL in the
// paper) and stages files from tape to its local disk cache before the
// request manager moves them over the WAN with GridFTP. It models a tape
// library (drives, mount and seek latencies, streaming read rate), an
// LRU disk cache with pinning, and exposes both a local API and an RPC
// service (the paper's CORBA interface).
package hrm

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"esgrid/internal/esgrpc"
	"esgrid/internal/gridftp"
	"esgrid/internal/gsi"
	"esgrid/internal/vtime"
)

// Provenance site tag(s) for the delays this package schedules on
// the virtual clock (flight-recorder attribution).
var siteStageWait = vtime.RegisterSite("hrm.stage-wait")

// Errors returned by the HRM.
var (
	ErrNotOnTape   = errors.New("hrm: file not in the archive")
	ErrNotStaged   = errors.New("hrm: file not staged to disk cache")
	ErrCacheThrash = errors.New("hrm: cache too small for pinned working set")
)

// Config describes the mass storage system.
type Config struct {
	// Drives is the number of tape drives (concurrent stages).
	Drives int
	// MountTime is charged when a drive must switch tapes.
	MountTime time.Duration
	// SeekTime is charged per staging to position the tape.
	SeekTime time.Duration
	// ReadBps is the tape streaming rate, bits/second.
	ReadBps float64
	// CacheBytes is the disk cache capacity.
	CacheBytes int64
}

// DefaultConfig is modelled on a year-2000 HPSS installation: a handful
// of drives, ~minute mounts, ~14 MB/s streaming.
var DefaultConfig = Config{
	Drives:     4,
	MountTime:  45 * time.Second,
	SeekTime:   20 * time.Second,
	ReadBps:    112e6, // 14 MB/s
	CacheBytes: 200 << 30,
}

// TapeFile is one archived file.
type TapeFile struct {
	Name string
	Size int64
	Tape string // tape cartridge label
}

// Stats counts cache and staging activity.
type Stats struct {
	Hits, Misses  int64
	StagedBytes   int64
	EvictedBytes  int64
	TotalWait     time.Duration
	MountsCharged int64
}

// HRM manages one mass storage system.
type HRM struct {
	clk vtime.Clock
	cfg Config

	mu      sync.Mutex
	cond    vtime.Cond
	archive map[string]TapeFile
	cache   *diskCache
	drives  []string // tape currently mounted in each drive; "" = empty
	busy    []bool
	stats   Stats

	// Fault injection (the public injector API consumed by chaos):
	// faultDelay adds tape-mount/robot stall time to every cache-miss
	// staging; faultErr fails every staging outright while set.
	faultDelay time.Duration
	faultErr   error
}

// New creates an HRM on the given clock.
func New(clk vtime.Clock, cfg Config) *HRM {
	if cfg.Drives < 1 {
		cfg.Drives = 1
	}
	h := &HRM{
		clk:     clk,
		cfg:     cfg,
		archive: map[string]TapeFile{},
		cache:   newDiskCache(cfg.CacheBytes),
		drives:  make([]string, cfg.Drives),
		busy:    make([]bool, cfg.Drives),
	}
	h.cond = clk.NewCond(&h.mu)
	return h
}

// SetStageDelay injects d of extra tape-machinery latency (a stuck mount
// robot, a drive retrying) into every cache-miss staging; 0 clears it.
func (h *HRM) SetStageDelay(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.faultDelay = d
}

// SetStageError makes every staging request fail with err until cleared
// with nil (the mass storage system refusing service).
func (h *HRM) SetStageError(err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.faultErr = err
}

// AddTapeFile registers an archived file.
func (h *HRM) AddTapeFile(f TapeFile) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.archive[f.Name] = f
}

// Stats returns a snapshot of activity counters.
func (h *HRM) Stats() Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.stats
}

// IsStaged reports whether the file is resident in the disk cache.
func (h *HRM) IsStaged(name string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.cache.has(name)
}

// Stage makes the file resident in the disk cache, reading it from tape
// if necessary, and pins it until Release. It returns the time the
// caller waited.
func (h *HRM) Stage(name string) (time.Duration, error) {
	start := h.clk.Now()
	h.mu.Lock()
	if err := h.faultErr; err != nil {
		h.mu.Unlock()
		return 0, err
	}
	f, ok := h.archive[name]
	if !ok {
		h.mu.Unlock()
		return 0, fmt.Errorf("%w: %s", ErrNotOnTape, name)
	}
	if h.cache.has(name) {
		h.cache.pin(name)
		h.stats.Hits++
		h.mu.Unlock()
		return 0, nil
	}
	h.stats.Misses++
	// Acquire a drive, preferring one with the right tape mounted.
	drive := -1
	for {
		drive = h.pickDriveLocked(f.Tape)
		if drive >= 0 {
			break
		}
		h.cond.Wait()
	}
	h.busy[drive] = true
	needMount := h.drives[drive] != f.Tape
	stall := h.faultDelay
	h.mu.Unlock()

	// Tape machinery time: mount (if switching), seek, stream the bytes,
	// plus any injected stall (chaos hrm.stall faults).
	d := h.cfg.SeekTime + time.Duration(float64(f.Size)*8/h.cfg.ReadBps*float64(time.Second)) + stall
	if needMount {
		d += h.cfg.MountTime
	}
	vtime.SleepTagged(h.clk, siteStageWait, d)

	h.mu.Lock()
	if needMount {
		h.stats.MountsCharged++
	}
	h.drives[drive] = f.Tape
	h.busy[drive] = false
	evicted, err := h.cache.insert(name, f.Size, true)
	if err == nil {
		h.stats.StagedBytes += f.Size
		h.stats.EvictedBytes += evicted
		h.stats.TotalWait += h.clk.Now().Sub(start)
	}
	h.cond.Broadcast()
	h.mu.Unlock()
	if err != nil {
		return h.clk.Now().Sub(start), err
	}
	return h.clk.Now().Sub(start), nil
}

// pickDriveLocked returns a free drive index, preferring one whose
// mounted tape matches; -1 if all drives are busy.
func (h *HRM) pickDriveLocked(tape string) int {
	free := -1
	for i := range h.drives {
		if h.busy[i] {
			continue
		}
		if h.drives[i] == tape {
			return i
		}
		if free < 0 {
			free = i
		}
	}
	return free
}

// Release unpins a staged file so the cache may evict it.
func (h *HRM) Release(name string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.cache.unpin(name)
}

// Store returns a gridftp.FileStore view of this HRM: files are servable
// only while staged, exactly as the paper's GridFTP-fronted HPSS works.
func (h *HRM) Store() gridftp.FileStore { return (*hrmStore)(h) }

type hrmStore HRM

func (s *hrmStore) Open(name string) (gridftp.Source, error) {
	h := (*HRM)(s)
	h.mu.Lock()
	defer h.mu.Unlock()
	f, ok := h.archive[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotOnTape, name)
	}
	if !h.cache.has(name) {
		return nil, fmt.Errorf("%w: %s", ErrNotStaged, name)
	}
	h.cache.touch(name)
	return gridftp.NewVirtualSource(f.Size), nil
}

func (s *hrmStore) Stat(name string) (int64, error) {
	h := (*HRM)(s)
	h.mu.Lock()
	defer h.mu.Unlock()
	f, ok := h.archive[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotOnTape, name)
	}
	return f.Size, nil
}

func (s *hrmStore) Create(name string, size int64) (gridftp.Sink, error) {
	return nil, gridftp.ErrStoreReadOnly
}

// --- RPC service (the CORBA interface of §4) ---

// Port is the TCP port every HRM serves its RPC interface on.
const Port = 4811

// StageRequest is the RPC payload for hrm.stage and hrm.release.
type StageRequest struct {
	File string `json:"file"`
}

// StageReply reports the staging outcome.
type StageReply struct {
	WaitMs int64 `json:"wait_ms"`
	Size   int64 `json:"size"`
}

// RegisterRPC exposes the HRM on an esgrpc server as hrm.stage and
// hrm.release.
func (h *HRM) RegisterRPC(srv *esgrpc.Server) {
	srv.Handle("hrm.stage", func(_ *gsi.Peer, params json.RawMessage) (any, error) {
		var req StageRequest
		if err := json.Unmarshal(params, &req); err != nil {
			return nil, err
		}
		wait, err := h.Stage(req.File)
		if err != nil {
			return nil, err
		}
		h.mu.Lock()
		size := h.archive[req.File].Size
		h.mu.Unlock()
		return StageReply{WaitMs: wait.Milliseconds(), Size: size}, nil
	})
	srv.Handle("hrm.release", func(_ *gsi.Peer, params json.RawMessage) (any, error) {
		var req StageRequest
		if err := json.Unmarshal(params, &req); err != nil {
			return nil, err
		}
		h.Release(req.File)
		return nil, nil
	})
}

// --- disk cache ---

// diskCache is an LRU byte-budgeted cache with pinning. Caller holds the
// HRM mutex.
type diskCache struct {
	capacity int64
	used     int64
	items    map[string]*cacheItem
	seq      int64
}

type cacheItem struct {
	size   int64
	pins   int
	lastAt int64 // LRU sequence
}

func newDiskCache(capacity int64) *diskCache {
	return &diskCache{capacity: capacity, items: map[string]*cacheItem{}}
}

func (c *diskCache) has(name string) bool {
	_, ok := c.items[name]
	return ok
}

func (c *diskCache) touch(name string) {
	if it, ok := c.items[name]; ok {
		c.seq++
		it.lastAt = c.seq
	}
}

func (c *diskCache) pin(name string) {
	if it, ok := c.items[name]; ok {
		it.pins++
		c.touch(name)
	}
}

func (c *diskCache) unpin(name string) {
	if it, ok := c.items[name]; ok && it.pins > 0 {
		it.pins--
	}
}

// insert adds a file, evicting unpinned LRU entries as needed; it
// reports the bytes evicted, or ErrCacheThrash if pinned entries leave
// no room.
func (c *diskCache) insert(name string, size int64, pinned bool) (evicted int64, err error) {
	if it, ok := c.items[name]; ok {
		if pinned {
			it.pins++
		}
		c.touch(name)
		return 0, nil
	}
	if size > c.capacity {
		return 0, fmt.Errorf("%w: file of %d bytes exceeds cache of %d", ErrCacheThrash, size, c.capacity)
	}
	for c.used+size > c.capacity {
		victim := ""
		var oldest int64 = 1<<63 - 1
		for n, it := range c.items {
			if it.pins == 0 && it.lastAt < oldest {
				victim, oldest = n, it.lastAt
			}
		}
		if victim == "" {
			return evicted, fmt.Errorf("%w: need %d bytes, all %d resident bytes pinned", ErrCacheThrash, size, c.used)
		}
		evicted += c.items[victim].size
		c.used -= c.items[victim].size
		delete(c.items, victim)
	}
	c.seq++
	it := &cacheItem{size: size, lastAt: c.seq}
	if pinned {
		it.pins = 1
	}
	c.items[name] = it
	c.used += size
	return evicted, nil
}
