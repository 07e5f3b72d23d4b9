package mds

import (
	"errors"
	"strings"
	"testing"
	"time"

	"esgrid/internal/ldapd"
)

func TestRegisterHostAndList(t *testing.T) {
	dir := ldapd.NewDir()
	s, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	hosts := []HostInfo{
		{Name: "pcm-00.ncar.edu", Site: "ncar", Services: []string{"gridftp:2811", "hrm:4811"}},
		{Name: "dm.lbnl.gov", Site: "lbnl", Services: []string{"gridftp:2811"}},
		{Name: "pitcairn.mcs.anl.gov", Site: "anl"},
	}
	for _, h := range hosts {
		if err := s.RegisterHost(h); err != nil {
			t.Fatalf("RegisterHost(%s): %v", h.Name, err)
		}
	}
	all := searchHosts(t, s, "(objectclass=grishost)")
	if len(all) != 3 {
		t.Fatalf("host records = %d, want 3", len(all))
	}
	ncar := searchHosts(t, s, "(&(objectclass=grishost)(site=ncar))")
	if len(ncar) != 1 || ncar[0].Get("hn") != "pcm-00.ncar.edu" {
		t.Fatalf("ncar host records = %+v", ncar)
	}
	if svcs := ncar[0].GetAll("service"); len(svcs) != 2 || svcs[0] != "gridftp:2811" {
		t.Fatalf("services = %v", svcs)
	}
	if none := searchHosts(t, s, "(site=llnl)"); len(none) != 0 {
		t.Fatalf("llnl host records = %+v, want none", none)
	}
}

// searchHosts returns the host records RegisterHost wrote that match filter.
func searchHosts(t *testing.T, s *Service, filter string) []*ldapd.Entry {
	t.Helper()
	es, err := s.dir.Search("ou=hosts,"+s.base, ldapd.ScopeSub, filter)
	if err != nil {
		t.Fatal(err)
	}
	return es
}

func TestRegisterHostUpsert(t *testing.T) {
	s := testService(t)
	if err := s.RegisterHost(HostInfo{Name: "dm.lbnl.gov", Site: "lbnl", Services: []string{"gridftp:2811"}}); err != nil {
		t.Fatal(err)
	}
	// Re-registering with new site/services must replace, not duplicate.
	if err := s.RegisterHost(HostInfo{Name: "dm.lbnl.gov", Site: "nersc", Services: []string{"gridftp:2811", "hrm:4811"}}); err != nil {
		t.Fatalf("upsert: %v", err)
	}
	all := searchHosts(t, s, "(objectclass=grishost)")
	if len(all) != 1 {
		t.Fatalf("upsert duplicated host: %+v", all)
	}
	if all[0].Get("site") != "nersc" || len(all[0].GetAll("service")) != 2 {
		t.Fatalf("upsert did not replace attrs: %+v", all[0])
	}
}

func TestRegisterHostError(t *testing.T) {
	// A Service over a directory whose hosts OU was never created: the
	// add has no parent entry, so RegisterHost must surface the error.
	s := &Service{dir: ldapd.NewDir(), base: Base}
	if err := s.RegisterHost(HostInfo{Name: "dm.lbnl.gov", Site: "lbnl"}); !errors.Is(err, ldapd.ErrNoSuchParent) {
		t.Fatalf("RegisterHost over empty directory: got %v, want ErrNoSuchParent", err)
	}
}

func TestAllForecasts(t *testing.T) {
	s := testService(t)
	pairs := []NetForecast{
		{From: "lbnl", To: "ncar", BandwidthBps: 80e6, Latency: 24 * time.Millisecond},
		{From: "ncar", To: "lbnl", BandwidthBps: 75e6, Latency: 24 * time.Millisecond},
		{From: "anl", To: "lbnl", BandwidthBps: 120e6, Latency: 18 * time.Millisecond},
	}
	for _, f := range pairs {
		if err := s.PublishForecast(f); err != nil {
			t.Fatal(err)
		}
	}
	all, err := s.AllForecasts()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("AllForecasts = %d entries, want 3", len(all))
	}
	seen := map[string]float64{}
	for _, f := range all {
		seen[f.From+"->"+f.To] = f.BandwidthBps
	}
	if seen["lbnl->ncar"] != 80e6 || seen["anl->lbnl"] != 120e6 {
		t.Fatalf("forecasts decoded wrong: %v", seen)
	}
}

func TestDecodeForecastBadRecords(t *testing.T) {
	dir := ldapd.NewDir()
	s, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A record with an unparseable bandwidth poisons AllForecasts.
	if err := dir.Add("np=x->y,ou=network,"+Base, map[string][]string{
		"objectclass":  {"nwsforecast"},
		"from":         {"x"},
		"to":           {"y"},
		"bandwidthbps": {"fast"},
		"latencyns":    {"1000"},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AllForecasts(); err == nil || !strings.Contains(err.Error(), "bad bandwidth") {
		t.Fatalf("bad bandwidth: got %v", err)
	}
	if err := dir.Delete("np=x->y,ou=network," + Base); err != nil {
		t.Fatal(err)
	}
	// Likewise an unparseable latency.
	if err := dir.Add("np=x->z,ou=network,"+Base, map[string][]string{
		"objectclass":  {"nwsforecast"},
		"from":         {"x"},
		"to":           {"z"},
		"bandwidthbps": {"1e6"},
		"latencyns":    {"soon"},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AllForecasts(); err == nil || !strings.Contains(err.Error(), "bad latency") {
		t.Fatalf("bad latency: got %v", err)
	}
	if _, err := s.Forecast("x", "z"); err == nil {
		t.Fatal("Forecast over bad record: want error")
	}
}

func TestAllForecastsSearchError(t *testing.T) {
	s := &Service{dir: ldapd.NewDir(), base: Base}
	if _, err := s.AllForecasts(); err == nil {
		t.Fatal("AllForecasts over empty directory: want error")
	}
}
