package grid

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"esgrid/internal/gridftp"
	"esgrid/internal/simnet"
)

// TestGridReportsFirstSetupError pins the error latch: a setup step
// that fails inside Run is what Run returns, and a later failure does
// not replace it.
func TestGridReportsFirstSetupError(t *testing.T) {
	g := New(1)
	g.Net.AddHost("h", simnet.HostConfig{})
	if _, err := g.Net.Host("h").Listen(":2811"); err != nil {
		t.Fatal(err)
	}
	served, laterFailed, nilFailed := true, false, true
	err := g.Run(func() {
		served = g.Serve("h", gridftp.Config{Store: VirtualStore(1, "f")})
		laterFailed = g.Fail(errors.New("later failure"))
		nilFailed = g.Fail(nil)
	})
	if served {
		t.Error("Serve on a bound port reported success")
	}
	if !laterFailed || nilFailed {
		t.Errorf("Fail(error) = %v, Fail(nil) = %v; want true, false", laterFailed, nilFailed)
	}
	if err == nil || !strings.Contains(err.Error(), "already in use") {
		t.Fatalf("Run returned %v, want the address-in-use error from Serve", err)
	}
}

// TestActiveProberReportsOccupiedPort: a probe port already bound on one
// of the hosts is latched, and no prober comes back.
func TestActiveProberReportsOccupiedPort(t *testing.T) {
	g := New(1)
	g.Net.AddHost("a", simnet.HostConfig{})
	g.Net.AddHost("b", simnet.HostConfig{})
	if _, err := g.Net.Host("b").Listen(fmt.Sprintf(":%d", probePort)); err != nil {
		t.Fatal(err)
	}
	err := g.Run(func() {
		if p := g.ActiveProber("a", "b"); p != nil {
			t.Error("ActiveProber on an occupied port returned a prober")
		}
	})
	if err == nil || !strings.Contains(err.Error(), "already in use") {
		t.Fatalf("Run returned %v, want the address-in-use error from ActiveProber", err)
	}
}

// TestProbers measures one path both ways: the active prober with a
// real probe transfer, the oracle off the simulator. An unknown source
// host is an error, not a crash.
func TestProbers(t *testing.T) {
	g := New(1)
	g.Net.AddHost("a", simnet.HostConfig{DefaultBufferBytes: 4 << 20})
	g.Net.AddHost("b", simnet.HostConfig{DefaultBufferBytes: 4 << 20})
	g.Net.AddLink("a", "b", simnet.LinkConfig{CapacityBps: 100e6, Delay: 5 * time.Millisecond})
	err := g.Run(func() {
		active := g.ActiveProber("b")
		if active == nil {
			return
		}
		bw, rtt, err := active.Probe("a", "b")
		if g.Fail(err) {
			return
		}
		if bw <= 0 || bw > 100e6 || rtt != 10*time.Millisecond {
			t.Errorf("active probe: %.0f b/s, rtt %v; want (0, 100e6] b/s, 10ms", bw, rtt)
		}
		if _, _, err := active.Probe("nowhere", "b"); err == nil {
			t.Error("active probe from an unknown host succeeded")
		}
		for _, noise := range []float64{0, 0.05} {
			bw, rtt, err := g.OracleProber(noise).Probe("a", "b")
			if g.Fail(err) {
				return
			}
			if bw < 95e6*(1-noise) || bw > 100e6*(1+noise) || rtt != 10*time.Millisecond {
				t.Errorf("oracle(noise %v): %.0f b/s, rtt %v", noise, bw, rtt)
			}
		}
		if _, _, err := g.OracleProber(0).Probe("nowhere", "b"); err == nil {
			t.Error("oracle probe from an unknown host succeeded")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFetchServesWholeFile stands up one server and fetches a file
// through it end to end.
func TestFetchServesWholeFile(t *testing.T) {
	g := New(1)
	g.Net.AddHost("src", simnet.HostConfig{})
	g.Net.AddHost("dst", simnet.HostConfig{})
	g.Net.AddLink("src", "dst", simnet.LinkConfig{CapacityBps: 100e6, Delay: time.Millisecond})
	const size = 4 << 20
	var st gridftp.TransferStats
	err := g.Run(func() {
		if !g.Serve("src", gridftp.Config{Store: VirtualStore(size, "f")}) {
			return
		}
		var err error
		st, err = g.Fetch("dst", "src:2811", "f", size, gridftp.ClientConfig{Parallelism: 2})
		g.Fail(err)
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Bytes != size {
		t.Fatalf("fetched %d bytes, want %d", st.Bytes, size)
	}
}
