package nws

import (
	"math"
	"testing"
	"time"

	"esgrid/internal/ldapd"
	"esgrid/internal/mds"
	"esgrid/internal/simnet"
	"esgrid/internal/transport"
	"esgrid/internal/vtime"
)

func TestLastValue(t *testing.T) {
	var f LastValue
	if !math.IsNaN(f.Predict()) {
		t.Fatal("prediction before data should be NaN")
	}
	f.Observe(10)
	f.Observe(20)
	if f.Predict() != 20 {
		t.Fatalf("Predict = %v, want 20", f.Predict())
	}
}

func TestRunningMean(t *testing.T) {
	var f RunningMean
	for _, v := range []float64{10, 20, 30} {
		f.Observe(v)
	}
	if f.Predict() != 20 {
		t.Fatalf("Predict = %v, want 20", f.Predict())
	}
}

func TestSlidingMedianRobustToSpike(t *testing.T) {
	f := NewSlidingMedian(5)
	for _, v := range []float64{100, 101, 99, 1000, 100} {
		f.Observe(v)
	}
	if p := f.Predict(); p != 100 {
		t.Fatalf("median = %v, want 100 (robust to the 1000 spike)", p)
	}
}

func TestSlidingMedianWindowEviction(t *testing.T) {
	f := NewSlidingMedian(3)
	for _, v := range []float64{1, 2, 3, 100, 101, 102} {
		f.Observe(v)
	}
	if p := f.Predict(); p != 101 {
		t.Fatalf("median = %v, want 101 (old values evicted)", p)
	}
}

func TestEWMAConverges(t *testing.T) {
	f := NewEWMA(0.5)
	for i := 0; i < 50; i++ {
		f.Observe(80)
	}
	if p := f.Predict(); math.Abs(p-80) > 1e-9 {
		t.Fatalf("EWMA on constant series = %v, want 80", p)
	}
}

func TestAR1LearnsTrendedSeries(t *testing.T) {
	f := &AR1{}
	// Strongly autocorrelated series: x(t+1) = 0.9 x(t) + 5.
	x := 100.0
	for i := 0; i < 200; i++ {
		f.Observe(x)
		x = 0.9*x + 5
	}
	want := 0.9*x + 5
	// Predict next from last observed... AR1 predicts from its own last.
	if p := f.Predict(); math.Abs(p-want) > 3 {
		t.Fatalf("AR1 predict = %v, want ~%v", p, want)
	}
}

func TestAdaptivePicksBestForecaster(t *testing.T) {
	a := NewAdaptive()
	// A noiseless constant series: every method converges, but "last" has
	// zero error from the second sample; adaptive must match it.
	for i := 0; i < 100; i++ {
		a.Observe(50)
	}
	if p := a.Predict(); p != 50 {
		t.Fatalf("adaptive predict = %v, want 50", p)
	}
	if mae := a.MAE(); mae != 0 {
		t.Fatalf("adaptive MAE = %v, want 0", mae)
	}
}

func TestAdaptiveOnAlternatingSeries(t *testing.T) {
	// Alternating 0,100,0,100...: "last" is maximally wrong (error 100),
	// the mean (50) has error 50. Adaptive must not pick "last".
	a := NewAdaptive()
	for i := 0; i < 200; i++ {
		a.Observe(float64((i % 2) * 100))
	}
	name, mae := a.Best()
	if name == "last" {
		t.Fatalf("adaptive picked %q (MAE %.1f); alternating series must not favour last-value", name, mae)
	}
	errs := a.Errors()
	if errs["last"] < errs[name] {
		t.Fatalf("selection inconsistent: best=%s errors=%v", name, errs)
	}
}

func TestAdaptiveErrorsTracksAllMembers(t *testing.T) {
	a := NewAdaptive()
	for i := 0; i < 30; i++ {
		a.Observe(float64(i))
	}
	errs := a.Errors()
	for _, name := range []string{"last", "mean", "median", "ewma", "ar1"} {
		if _, ok := errs[name]; !ok {
			t.Errorf("no error recorded for %q", name)
		}
	}
	// On a linear ramp, AR(1) should beat the running mean badly.
	if errs["ar1"] > errs["mean"] {
		t.Errorf("on a ramp, ar1 MAE %.2f should beat mean MAE %.2f", errs["ar1"], errs["mean"])
	}
}

// TestSensorPublishesIntoMDS wires sensor -> MDS over a simulated
// network, mirroring §5 of the paper.
func TestSensorPublishesIntoMDS(t *testing.T) {
	clk := vtime.NewSim(3)
	clk.Run(func() {
		n := simnet.New(clk)
		n.AddHost("lbnl", simnet.HostConfig{})
		n.AddHost("isi", simnet.HostConfig{})
		n.AddLink("lbnl", "isi", simnet.LinkConfig{CapacityBps: 155e6, Delay: 12 * time.Millisecond})

		dir := ldapd.NewDir()
		svc, err := mds.New(dir)
		if err != nil {
			t.Fatal(err)
		}
		prober := ProbeFunc(func(from, to string) (float64, time.Duration, error) {
			bw, err := n.EstimateBandwidth(from, to)
			if err != nil {
				return 0, 0, err
			}
			rtt, err := n.PathRTT(from, to)
			if err != nil {
				return 0, 0, err
			}
			// Measurement noise: +/- 5% deterministic from the sim RNG.
			bw *= 1 + 0.05*(2*clk.Rand()-1)
			return bw, rtt, nil
		})
		s := NewSensor(clk, prober, svc, 10*time.Second)
		s.Watch("lbnl", "isi")
		s.Watch("isi", "lbnl")
		s.Start()
		clk.Sleep(2 * time.Minute)

		f, err := svc.Forecast("lbnl", "isi")
		if err != nil {
			t.Fatal(err)
		}
		if f.BandwidthBps < 0.85*155e6 || f.BandwidthBps > 1.15*155e6 {
			t.Fatalf("forecast bandwidth %.0f, want ~155e6", f.BandwidthBps)
		}
		if f.Latency < 20*time.Millisecond || f.Latency > 30*time.Millisecond {
			t.Fatalf("forecast latency %v, want ~24ms", f.Latency)
		}
		all, err := svc.AllForecasts()
		if err != nil {
			t.Fatal(err)
		}
		if len(all) != 2 {
			t.Fatalf("AllForecasts = %d entries, want 2", len(all))
		}
	})
}

func TestSensorSkipsFailedProbes(t *testing.T) {
	clk := vtime.NewSim(4)
	clk.Run(func() {
		dir := ldapd.NewDir()
		svc, _ := mds.New(dir)
		fail := true
		prober := ProbeFunc(func(from, to string) (float64, time.Duration, error) {
			if fail {
				return 0, 0, &simnet.DNSError{Name: to}
			}
			return 42e6, 10 * time.Millisecond, nil
		})
		s := NewSensor(clk, prober, svc, time.Second)
		s.Watch("a", "b")
		s.MeasureNow() // fails; nothing published
		if _, err := svc.Forecast("a", "b"); err == nil {
			t.Fatal("forecast exists despite failed probe")
		}
		fail = false
		s.MeasureNow()
		f, err := svc.Forecast("a", "b")
		if err != nil {
			t.Fatal(err)
		}
		if f.BandwidthBps != 42e6 {
			t.Fatalf("bandwidth = %v", f.BandwidthBps)
		}
	})
}

func TestMDSHostRegistry(t *testing.T) {
	dir := ldapd.NewDir()
	svc, err := mds.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []mds.HostInfo{
		{Name: "dustdevil.llnl.gov", Site: "llnl", Services: []string{"gridftp:2811"}},
		{Name: "pdsf.lbl.gov", Site: "lbnl", Services: []string{"gridftp:2811", "hrm:4000"}},
	} {
		if err := svc.RegisterHost(h); err != nil {
			t.Fatal(err)
		}
	}
	hosts := func(filter string) []*ldapd.Entry {
		t.Helper()
		es, err := dir.Search("ou=hosts,"+mds.Base, ldapd.ScopeSub, filter)
		if err != nil {
			t.Fatal(err)
		}
		return es
	}
	if all := hosts("(objectclass=grishost)"); len(all) != 2 {
		t.Fatalf("hosts = %d, want 2", len(all))
	}
	lbnl := hosts("(site=lbnl)")
	if len(lbnl) != 1 || lbnl[0].Get("hn") != "pdsf.lbl.gov" {
		t.Fatalf("lbnl hosts = %v", lbnl)
	}
	// Re-register updates in place.
	if err := svc.RegisterHost(mds.HostInfo{Name: "pdsf.lbl.gov", Site: "lbnl", Services: []string{"hrm:4001"}}); err != nil {
		t.Fatal(err)
	}
	lbnl = hosts("(site=lbnl)")
	if len(lbnl) != 1 || len(lbnl[0].GetAll("service")) != 1 || lbnl[0].Get("service") != "hrm:4001" {
		t.Fatalf("after update: %+v", lbnl)
	}
}

// TestTransferProber verifies the active-measurement mode: a real probe
// transfer between simulated hosts yields a plausible bandwidth sample
// and a correct RTT, and preserves the ranking between a fast and a slow
// path (the property replica selection needs), including the documented
// slow-start bias.
func TestTransferProber(t *testing.T) {
	clk := vtime.NewSim(5)
	clk.Run(func() {
		n := simnet.New(clk)
		n.AddNode("wan")
		for _, h := range []string{"desk", "fastsite", "slowsite"} {
			n.AddHost(h, simnet.HostConfig{DefaultBufferBytes: 1 << 20})
		}
		n.AddLink("desk", "wan", simnet.LinkConfig{CapacityBps: 1e9, Delay: 2 * time.Millisecond})
		n.AddLink("fastsite", "wan", simnet.LinkConfig{CapacityBps: 622e6, Delay: 5 * time.Millisecond})
		n.AddLink("slowsite", "wan", simnet.LinkConfig{CapacityBps: 10e6, Delay: 5 * time.Millisecond})

		for _, h := range []string{"desk", "fastsite", "slowsite"} {
			l, err := n.Host(h).Listen(":8060")
			if err != nil {
				t.Fatal(err)
			}
			clk.Go(func() { ServeProbes(clk, l) })
		}
		prober := NewTransferProber(clk, func(name string) transport.Network {
			h := n.Host(name)
			if h == nil {
				return nil
			}
			return h
		}, 8060, 1<<20)

		fastBW, fastRTT, err := prober.Probe("fastsite", "desk")
		if err != nil {
			t.Fatal(err)
		}
		slowBW, _, err := prober.Probe("slowsite", "desk")
		if err != nil {
			t.Fatal(err)
		}
		if wantRTT := 14 * time.Millisecond; fastRTT != wantRTT {
			t.Fatalf("fast RTT = %v, want %v", fastRTT, wantRTT)
		}
		// Ranking must hold; absolute value on the fast path is biased
		// low by slow start but must still beat the slow path's capacity.
		if fastBW <= slowBW {
			t.Fatalf("ranking lost: fast %.1f <= slow %.1f Mb/s", fastBW/1e6, slowBW/1e6)
		}
		if slowBW > 11e6 {
			t.Fatalf("slow path probe %.1f Mb/s exceeds its 10 Mb/s capacity", slowBW/1e6)
		}
		if fastBW < 50e6 {
			t.Fatalf("fast path probe %.1f Mb/s implausibly low", fastBW/1e6)
		}
		if _, _, err := prober.Probe("nowhere", "desk"); err == nil {
			t.Fatal("unknown source host accepted")
		}
	})
}
