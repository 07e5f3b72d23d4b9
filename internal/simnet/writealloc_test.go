package simnet

import (
	"testing"
	"time"

	"esgrid/internal/transport"
	"esgrid/internal/vtime"
)

// TestWriteVirtualSteadyStateAllocFree guards the whole virtual data path:
// once the segment pool, flow scratch and event slots are warm, a
// WriteVirtual call — enqueue, flow activation, allocation flush, window
// growth, transmit wait, deactivation — must not allocate. This is the
// path the Table 1 and Figure 8 experiments hammer millions of times.
func TestWriteVirtualSteadyStateAllocFree(t *testing.T) {
	clk := vtime.NewSim(1)
	clk.Run(func() {
		_, a, b := twoHosts(clk, 100*mbps, time.Millisecond, 0)
		l, err := b.Listen(":9000")
		if err != nil {
			t.Fatal(err)
		}
		clk.Go(func() {
			c, err := l.Accept()
			if err != nil {
				return
			}
			transport.ReadVirtualFrom(c, 1<<40) // endless reader
		})
		c, err := a.Dial("b:9000")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		w := c.(transport.VirtualWriter)
		for i := 0; i < 10; i++ { // warm pools, scratch and the slot arena
			if err := w.WriteVirtual(64 << 10); err != nil {
				t.Fatal(err)
			}
		}
		var werr error
		allocs := testing.AllocsPerRun(100, func() {
			if err := w.WriteVirtual(64 << 10); err != nil && werr == nil {
				werr = err
			}
		})
		if werr != nil {
			t.Fatal(werr)
		}
		if allocs > 0 {
			t.Errorf("WriteVirtual allocates %.1f objects per call, want 0", allocs)
		}
	})
}
