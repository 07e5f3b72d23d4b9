package hrm

import (
	"errors"
	"testing"
	"time"

	"esgrid/internal/esgrpc"
	"esgrid/internal/gridftp"
	"esgrid/internal/simnet"
	"esgrid/internal/vtime"
)

const gb = int64(1) << 30

// tapeStream returns the streaming time of n bytes at 112 Mb/s.
func tapeStream(n int64) time.Duration {
	secs := float64(n) * 8 / 112e6
	return time.Duration(secs * float64(time.Second))
}

func testHRM(clk vtime.Clock) *HRM {
	h := New(clk, Config{
		Drives:     2,
		MountTime:  45 * time.Second,
		SeekTime:   15 * time.Second,
		ReadBps:    112e6,
		CacheBytes: 10 * gb,
	})
	h.AddTapeFile(TapeFile{Name: "a.nc", Size: 2 * gb, Tape: "T001"})
	h.AddTapeFile(TapeFile{Name: "b.nc", Size: 2 * gb, Tape: "T001"})
	h.AddTapeFile(TapeFile{Name: "c.nc", Size: 2 * gb, Tape: "T002"})
	h.AddTapeFile(TapeFile{Name: "d.nc", Size: 9 * gb, Tape: "T003"})
	return h
}

func TestStageChargesTapeTime(t *testing.T) {
	clk := vtime.NewSim(1)
	clk.Run(func() {
		h := testHRM(clk)
		t0 := clk.Now()
		wait, err := h.Stage("a.nc")
		if err != nil {
			t.Fatal(err)
		}
		elapsed := clk.Now().Sub(t0)
		// mount 45s + seek 15s + 2GB at 14MB/s ~ 153s => ~213s total.
		want := 45*time.Second + 15*time.Second + tapeStream(2*gb)
		if d := elapsed - want; d < -time.Second || d > time.Second {
			t.Fatalf("stage took %v, want ~%v", elapsed, want)
		}
		if wait < want-time.Second {
			t.Fatalf("reported wait %v too small", wait)
		}
		if !h.IsStaged("a.nc") {
			t.Fatal("file not resident after stage")
		}
	})
}

func TestStageCacheHitIsFree(t *testing.T) {
	clk := vtime.NewSim(2)
	clk.Run(func() {
		h := testHRM(clk)
		h.Stage("a.nc")
		t0 := clk.Now()
		wait, err := h.Stage("a.nc")
		if err != nil || wait != 0 {
			t.Fatalf("second stage: wait=%v err=%v", wait, err)
		}
		if clk.Now().Sub(t0) != 0 {
			t.Fatal("cache hit consumed virtual time")
		}
		st := h.Stats()
		if st.Hits != 1 || st.Misses != 1 {
			t.Fatalf("stats = %+v", st)
		}
	})
}

func TestStageSameTapeSkipsMount(t *testing.T) {
	clk := vtime.NewSim(3)
	clk.Run(func() {
		h := testHRM(clk)
		h.Stage("a.nc") // mounts T001 on a drive
		t0 := clk.Now()
		h.Stage("b.nc") // same tape: no mount charge
		elapsed := clk.Now().Sub(t0)
		want := 15*time.Second + tapeStream(2*gb)
		if d := elapsed - want; d < -time.Second || d > time.Second {
			t.Fatalf("same-tape stage took %v, want ~%v (no mount)", elapsed, want)
		}
		if h.Stats().MountsCharged != 1 {
			t.Fatalf("mounts = %d, want 1", h.Stats().MountsCharged)
		}
	})
}

func TestDriveContention(t *testing.T) {
	clk := vtime.NewSim(4)
	clk.Run(func() {
		// One drive: two concurrent stages must serialize.
		h := New(clk, Config{Drives: 1, SeekTime: 10 * time.Second, ReadBps: 800e6, CacheBytes: 100 * gb})
		h.AddTapeFile(TapeFile{Name: "x.nc", Size: gb, Tape: "T1"})
		h.AddTapeFile(TapeFile{Name: "y.nc", Size: gb, Tape: "T1"})
		t0 := clk.Now()
		wg := vtime.NewWaitGroup(clk)
		wg.Go(func() { h.Stage("x.nc") })
		wg.Go(func() { h.Stage("y.nc") })
		wg.Wait()
		// Each: seek 10s + ~10.7s read; serialized ~41s, parallel would be ~21s.
		if elapsed := clk.Now().Sub(t0); elapsed < 38*time.Second {
			t.Fatalf("stages overlapped on one drive: %v", elapsed)
		}
	})
}

func TestCacheEvictionLRU(t *testing.T) {
	clk := vtime.NewSim(5)
	clk.Run(func() {
		h := testHRM(clk) // 10GB cache
		h.Stage("a.nc")   // 2GB
		h.Stage("b.nc")   // 2GB
		h.Release("a.nc")
		h.Release("b.nc")
		h.Stage("c.nc") // 2GB; fits
		h.Release("c.nc")
		// d.nc is 9GB: must evict a and b (LRU order), not c... a is
		// oldest, then b; evicting both frees 4GB -> need 9GB total with
		// 6GB resident: evict a, b, then c? 2+2+2=6 used; 9 needs 3 evictions.
		if _, err := h.Stage("d.nc"); err != nil {
			t.Fatal(err)
		}
		if h.IsStaged("a.nc") || h.IsStaged("b.nc") || h.IsStaged("c.nc") {
			t.Fatal("eviction did not remove older entries")
		}
		if !h.IsStaged("d.nc") {
			t.Fatal("d.nc not resident")
		}
		if st := h.Stats(); st.EvictedBytes != 6*gb {
			t.Fatalf("evicted %d bytes, want %d", st.EvictedBytes, 6*gb)
		}
	})
}

func TestPinnedFilesNotEvicted(t *testing.T) {
	clk := vtime.NewSim(6)
	clk.Run(func() {
		h := testHRM(clk)
		h.Stage("a.nc") // pinned
		h.Stage("b.nc") // pinned
		// 4GB pinned; d.nc needs 9GB of 10GB -> thrash error.
		_, err := h.Stage("d.nc")
		if !errors.Is(err, ErrCacheThrash) {
			t.Fatalf("err = %v, want ErrCacheThrash", err)
		}
		h.Release("a.nc")
		h.Release("b.nc")
		if _, err := h.Stage("d.nc"); err != nil {
			t.Fatalf("after release: %v", err)
		}
	})
}

func TestStageUnknownFile(t *testing.T) {
	clk := vtime.NewSim(7)
	clk.Run(func() {
		h := testHRM(clk)
		if _, err := h.Stage("nope.nc"); !errors.Is(err, ErrNotOnTape) {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestStoreServesOnlyStagedFiles(t *testing.T) {
	clk := vtime.NewSim(8)
	clk.Run(func() {
		h := testHRM(clk)
		store := h.Store()
		if _, err := store.Open("a.nc"); !errors.Is(err, ErrNotStaged) {
			t.Fatalf("open unstaged: %v", err)
		}
		if _, err := store.Open("zzz.nc"); !errors.Is(err, ErrNotOnTape) {
			t.Fatalf("open unknown: %v", err)
		}
		if size, err := store.Stat("a.nc"); err != nil || size != 2*gb {
			t.Fatalf("stat = %d, %v", size, err)
		}
		h.Stage("a.nc")
		src, err := store.Open("a.nc")
		if err != nil {
			t.Fatal(err)
		}
		if src.Size() != 2*gb {
			t.Fatalf("source size = %d", src.Size())
		}
		if _, err := store.Create("w.nc", 1); !errors.Is(err, gridftp.ErrStoreReadOnly) {
			t.Fatalf("create on HRM store: %v", err)
		}
	})
}

func TestHRMOverRPC(t *testing.T) {
	clk := vtime.NewSim(9)
	clk.Run(func() {
		n := simnet.New(clk)
		lbnl := n.AddHost("lbnl", simnet.HostConfig{})
		rm := n.AddHost("rm", simnet.HostConfig{})
		n.AddLink("lbnl", "rm", simnet.LinkConfig{CapacityBps: 100e6, Delay: 10 * time.Millisecond})

		h := testHRM(clk)
		srv := esgrpc.NewServer(clk, nil)
		h.RegisterRPC(srv)
		l, _ := lbnl.Listen(":4000")
		clk.Go(func() { srv.Serve(l) })

		cli, err := esgrpc.Dial(clk, rm, "lbnl:4000", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		var rep StageReply
		if err := cli.Call("hrm.stage", StageRequest{File: "a.nc"}, &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Size != 2*gb || rep.WaitMs < 100000 {
			t.Fatalf("reply = %+v", rep)
		}
		if !h.IsStaged("a.nc") {
			t.Fatal("not staged via RPC")
		}
		if err := cli.Call("hrm.release", StageRequest{File: "a.nc"}, nil); err != nil {
			t.Fatal(err)
		}
		if st := h.Stats(); st.Misses != 1 {
			t.Fatalf("stats = %+v", st)
		}
		if err := cli.Call("hrm.stage", StageRequest{File: "nope"}, nil); err == nil {
			t.Fatal("staging unknown file over RPC succeeded")
		}
	})
}

// TestStagedThenTransferred reproduces §4's flow: stage from tape, then
// GridFTP the file off the cache host over the WAN.
func TestStagedThenTransferred(t *testing.T) {
	clk := vtime.NewSim(10)
	clk.Run(func() {
		n := simnet.New(clk)
		lbnl := n.AddHost("lbnl", simnet.HostConfig{DefaultBufferBytes: 1 << 20})
		ncar := n.AddHost("ncar", simnet.HostConfig{DefaultBufferBytes: 1 << 20})
		n.AddLink("lbnl", "ncar", simnet.LinkConfig{CapacityBps: 622e6, Delay: 15 * time.Millisecond})

		h := testHRM(clk)
		gsrv, err := gridftp.NewServer(gridftp.Config{
			Clock: clk, Net: lbnl, Host: "lbnl", Store: h.Store(),
		})
		if err != nil {
			t.Fatal(err)
		}
		l, _ := lbnl.Listen(":2811")
		clk.Go(func() { gsrv.Serve(l) })

		c, err := gridftp.Dial(gridftp.ClientConfig{
			Clock: clk, Net: ncar, Parallelism: 2, BufferBytes: 1 << 20,
		}, "lbnl:2811")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		// Transfer before staging fails with 550.
		sink := gridftp.NewVirtualSink(2 * gb)
		if _, err := c.Get("a.nc", sink); err == nil {
			t.Fatal("transfer of unstaged file succeeded")
		}
		if _, err := h.Stage("a.nc"); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Get("a.nc", sink); err != nil {
			t.Fatal(err)
		}
		if err := sink.Complete(); err != nil {
			t.Fatal(err)
		}
	})
}
