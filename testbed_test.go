package esgrid

import (
	"strings"
	"testing"
	"time"

	"esgrid/internal/vtime"
)

// fileOutcome is what one fetched file ended as: where it came from,
// when (virtual time since the run began) and how much arrived.
type fileOutcome struct {
	replica  string
	finish   time.Duration
	received int64
}

// testbedOutcomes runs the quickstart query on a testbed built from cfg
// and returns each file's outcome. Same-instant log order is left out:
// it is the one thing that may differ between equal-seed runs.
func testbedOutcomes(t *testing.T, cfg TestbedConfig) map[string]fileOutcome {
	t.Helper()
	tb, err := NewTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]fileOutcome{}
	tb.Run(func() {
		req, err := tb.Fetch(Query{
			Dataset:   "pcm-b06.44",
			Variables: []string{"tas"},
			From:      Month(1998, 1),
			To:        Month(1998, 2),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := req.Wait(); err != nil {
			t.Fatal(err)
		}
		for _, st := range req.Status() {
			out[st.Name] = fileOutcome{replica: st.Replica, received: st.Received}
		}
	})
	for _, ev := range tb.Log.Named("rm") {
		name, rest, ok := strings.Cut(ev.Fields["msg"], ": transfer complete from ")
		if o, seen := out[name]; ok && seen && strings.HasPrefix(rest, o.replica+" ") {
			o.finish = ev.Time.Sub(vtime.Epoch)
			out[name] = o
		}
	}
	return out
}

// TestTestbedOutcomePinned pins, file by file, the replica the request
// manager chose, the virtual instant the transfer completed and the
// bytes moved, for the oracle-NWS quickstart and the active-probe
// testbed. The grid under the Testbed may be rebuilt, but not so that
// any of these moves.
func TestTestbedOutcomePinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  TestbedConfig
		want map[string]fileOutcome
	}{
		{"quickstart", TestbedConfig{Seed: 1}, map[string]fileOutcome{
			"pcm.tas.1998-01.nc": {"lbnl-pdsf", 274392130976, 2146435072},
			"pcm.tas.1998-02.nc": {"lbnl-pdsf", 274392130976, 2146435072},
		}},
		{"active-probes", TestbedConfig{Seed: 21, ActiveProbes: true}, map[string]fileOutcome{
			"pcm.tas.1998-01.nc": {"lbnl-clipper", 57455773940, 2146435072},
			"pcm.tas.1998-02.nc": {"lbnl-clipper", 57455773940, 2146435072},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := testbedOutcomes(t, tc.cfg)
			if len(got) != len(tc.want) {
				t.Fatalf("got %d files, want %d", len(got), len(tc.want))
			}
			for name, want := range tc.want {
				if got[name] != want {
					t.Errorf("%s: got %+v, want %+v", name, got[name], want)
				}
			}
		})
	}
}
