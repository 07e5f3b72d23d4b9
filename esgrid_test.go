package esgrid

import (
	"strings"
	"testing"
	"time"

	"esgrid/internal/climate"
)

// TestEndToEndDemo replays the SC'00 demonstration flow (§7, Figures
// 2-4): attribute selection -> metadata catalog -> logical files ->
// request manager (NWS replica selection, HRM staging) -> GridFTP ->
// monitor -> analysis/visualization.
func TestEndToEndDemo(t *testing.T) {
	tb, err := NewTestbed(TestbedConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	tb.Run(func() {
		req, err := tb.Fetch(Query{
			Dataset:   "pcm-b06.44",
			Variables: []string{climate.VarTemperature, climate.VarCloudCover},
			From:      Month(1998, 6),
			To:        Month(1998, 8),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := req.Wait(); err != nil {
			t.Fatal(err)
		}
		sts := req.Status()
		if len(sts) != 6 { // 3 months x 2 variables
			t.Fatalf("files = %d, want 6", len(sts))
		}
		var total int64
		for _, st := range sts {
			if st.Replica == "" {
				t.Errorf("%s has no replica recorded", st.Name)
			}
			total += st.Received
		}
		if total < 6<<30 {
			t.Fatalf("moved %d bytes, want multi-GB", total)
		}
		mon := RenderMonitor(req, 100)
		for _, want := range []string{"pcm.tas.1998-06.nc", "100.0%", "replica selections:"} {
			if !strings.Contains(mon, want) {
				t.Errorf("monitor missing %q", want)
			}
		}
		// Visualization (Figure 3 analog).
		fld, err := tb.Analyze("pcm", climate.VarTemperature, 1998, 7)
		if err != nil {
			t.Fatal(err)
		}
		viz := fld.RenderASCII(72)
		if !strings.Contains(viz, "tas") || len(strings.Split(viz, "\n")) < 10 {
			t.Fatalf("visualization too small:\n%s", viz)
		}
	})
}

func TestNWSSelectionPrefersNearbySite(t *testing.T) {
	tb, err := NewTestbed(TestbedConfig{Seed: 7, Policy: PolicyNWS})
	if err != nil {
		t.Fatal(err)
	}
	tb.Run(func() {
		req, err := tb.Fetch(Query{
			Dataset:   "pcm-b06.44",
			Variables: []string{climate.VarPrecipitation},
			From:      Month(1999, 1),
			To:        Month(1999, 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := req.Wait(); err != nil {
			t.Fatal(err)
		}
		// LLNL's best-connected replicas are the LBNL sites (622 Mb/s,
		// 3 ms); lbnl-pdsf hides behind tape, so the RM should pick a
		// high-bandwidth non-HRM site — never the 155 Mb/s ones.
		st := req.Status()[0]
		if st.Replica == "ncar" || st.Replica == "isi" {
			t.Fatalf("NWS picked a 155 Mb/s site %q over 622 Mb/s options", st.Replica)
		}
	})
}

func TestSecureTestbed(t *testing.T) {
	tb, err := NewTestbed(TestbedConfig{
		Seed:          3,
		Security:      true,
		HandshakeCost: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	tb.Run(func() {
		req, err := tb.Fetch(Query{
			Dataset:   "pcm-b06.44",
			Variables: []string{climate.VarTemperature},
			From:      Month(1998, 1),
			To:        Month(1998, 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := req.Wait(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestHRMSiteStagesBeforeTransfer(t *testing.T) {
	// A dataset only replicated at the HRM site forces tape staging.
	ds := DefaultDataset()
	ds.ReplicaSites = []string{"lbnl-pdsf"}
	tb, err := NewTestbed(TestbedConfig{Seed: 11, Datasets: []DatasetSpec{ds}})
	if err != nil {
		t.Fatal(err)
	}
	tb.Run(func() {
		t0 := tb.Clock.Now()
		req, err := tb.Fetch(Query{
			Dataset:   "pcm-b06.44",
			Variables: []string{climate.VarTemperature},
			From:      Month(1998, 2),
			To:        Month(1998, 2),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := req.Wait(); err != nil {
			t.Fatal(err)
		}
		// 2 GB off tape at 14 MB/s is minutes of staging.
		if elapsed := tb.Clock.Now().Sub(t0); elapsed < 2*time.Minute {
			t.Fatalf("completed in %v; tape staging latency missing", elapsed)
		}
		h := tb.HRMs["lbnl-pdsf"]
		if h.Stats().Misses == 0 {
			t.Fatal("no tape staging recorded")
		}
		joined := strings.Join(req.Messages(), "\n")
		if !strings.Contains(joined, "staged from mass storage") {
			t.Fatalf("messages missing staging:\n%s", joined)
		}
	})
}

func TestQueryValidation(t *testing.T) {
	tb, err := NewTestbed(TestbedConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tb.Run(func() {
		if _, err := tb.Fetch(Query{Dataset: "no-such"}); err == nil {
			t.Fatal("unknown dataset fetched")
		}
		if _, err := tb.Fetch(Query{Dataset: "pcm-b06.44", From: Month(2030, 1), To: Month(2030, 2)}); err == nil {
			t.Fatal("out-of-range window fetched")
		}
	})
}

// TestReplicateDataset exercises §6.2's collection-copy service through
// the public API: replicate a dataset to a site that held nothing, then
// verify the catalog resolves the new location.
func TestReplicateDataset(t *testing.T) {
	ds := DefaultDataset()
	ds.From = Month(1998, 1)
	ds.To = Month(1998, 2)
	ds.Variables = []string{climate.VarTemperature}
	ds.ReplicaSites = []string{"anl"} // data starts only at ANL
	tb, err := NewTestbed(TestbedConfig{Seed: 13, Datasets: []DatasetSpec{ds}})
	if err != nil {
		t.Fatal(err)
	}
	tb.Run(func() {
		rep, err := tb.Replicate("pcm-b06.44", "sdsc")
		if err != nil {
			t.Fatalf("replicate: %v (report %+v)", err, rep)
		}
		if len(rep.Copied) != 2 {
			t.Fatalf("copied = %v", rep.Copied)
		}
		locs, err := tb.Replica.LocationsFor("pcm-b06.44-monthly", rep.Copied[0])
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, l := range locs {
			if l.Host == "sdsc" {
				found = true
			}
		}
		if !found {
			t.Fatalf("sdsc not registered: %v", locs)
		}
		if !tb.Stores["sdsc"].Has(rep.Copied[0]) {
			t.Fatal("file not present at sdsc")
		}
		// Replicating to the tape site is rejected.
		if _, err := tb.Replicate("pcm-b06.44", "lbnl-pdsf"); err == nil {
			t.Fatal("replicate to HRM site accepted")
		}
	})
}

// TestActiveProbeTestbed runs the testbed with Wolski-style probe
// transfers instead of the oracle and verifies fetches still complete and
// forecasts exist for every site pair.
func TestActiveProbeTestbed(t *testing.T) {
	tb, err := NewTestbed(TestbedConfig{Seed: 21, ActiveProbes: true})
	if err != nil {
		t.Fatal(err)
	}
	tb.Run(func() {
		tb.Clock.Sleep(time.Minute) // let a couple of probe rounds land
		for _, s := range Figure1Sites() {
			f, err := tb.Info.Forecast(s.Name, "llnl")
			if err != nil {
				t.Fatalf("no forecast for %s: %v", s.Name, err)
			}
			if f.BandwidthBps <= 0 || f.Latency <= 0 {
				t.Fatalf("degenerate forecast for %s: %+v", s.Name, f)
			}
		}
		req, err := tb.Fetch(Query{
			Dataset:   "pcm-b06.44",
			Variables: []string{climate.VarCloudCover},
			From:      Month(1998, 4),
			To:        Month(1998, 4),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := req.Wait(); err != nil {
			t.Fatal(err)
		}
	})
}
