package mds

import (
	"testing"
	"time"

	"esgrid/internal/ldapd"
)

func testService(t *testing.T) *Service {
	t.Helper()
	s, err := New(ldapd.NewDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestForecastRoundTrip(t *testing.T) {
	s := testService(t)
	want := NetForecast{
		From: "lbnl", To: "llnl",
		BandwidthBps: 512.9e6,
		Latency:      18 * time.Millisecond,
		ErrBps:       12.5e6,
		Measured:     time.Date(2000, 11, 7, 9, 30, 0, 0, time.UTC),
	}
	if err := s.PublishForecast(want); err != nil {
		t.Fatal(err)
	}
	got, err := s.Forecast("lbnl", "llnl")
	if err != nil {
		t.Fatal(err)
	}
	if got.BandwidthBps != want.BandwidthBps || got.Latency != want.Latency ||
		got.ErrBps != want.ErrBps || !got.Measured.Equal(want.Measured) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

func TestForecastUpsert(t *testing.T) {
	s := testService(t)
	f := NetForecast{From: "a", To: "b", BandwidthBps: 100e6, Latency: time.Millisecond}
	s.PublishForecast(f)
	f.BandwidthBps = 50e6
	if err := s.PublishForecast(f); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Forecast("a", "b")
	if got.BandwidthBps != 50e6 {
		t.Fatalf("update lost: %v", got.BandwidthBps)
	}
	all, err := s.AllForecasts()
	if err != nil || len(all) != 1 {
		t.Fatalf("all = %v, %v", all, err)
	}
}

func TestForecastDirectionality(t *testing.T) {
	s := testService(t)
	s.PublishForecast(NetForecast{From: "a", To: "b", BandwidthBps: 1})
	if _, err := s.Forecast("b", "a"); err == nil {
		t.Fatal("reverse direction should have no forecast")
	}
}

func TestForecastMissing(t *testing.T) {
	s := testService(t)
	if _, err := s.Forecast("x", "y"); err == nil {
		t.Fatal("missing forecast returned")
	}
}

func TestNewIsIdempotent(t *testing.T) {
	dir := ldapd.NewDir()
	if _, err := New(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := New(dir); err != nil {
		t.Fatal(err)
	}
}

func TestHostHealthRoundTrip(t *testing.T) {
	s := testService(t)
	h := HostHealth{
		Host: "ncar", Status: HealthDegraded,
		GoodputBps: 42e6, ActiveTransfers: 3, Alerts: 2,
		Updated: time.Date(2000, 11, 6, 8, 0, 12, 0, time.UTC),
	}
	if err := s.PublishHostHealth(h); err != nil {
		t.Fatal(err)
	}
	got, err := s.HostHealthFor("ncar")
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip: got %+v want %+v", got, h)
	}
	// Upsert replaces in place.
	h.Status = HealthOK
	h.Alerts = 5
	if err := s.PublishHostHealth(h); err != nil {
		t.Fatal(err)
	}
	all, err := s.HostHealths()
	if err != nil || len(all) != 1 {
		t.Fatalf("HostHealths = %v, %v", all, err)
	}
	if all[0].Status != HealthOK || all[0].Alerts != 5 {
		t.Fatalf("after upsert: %+v", all[0])
	}
	if _, err := s.HostHealthFor("ghost"); err == nil {
		t.Fatal("missing host health returned")
	}
}

func TestPathHealthRoundTrip(t *testing.T) {
	s := testService(t)
	p := PathHealth{
		From: "lbnl", To: "anl", Status: HealthDown,
		ObservedBps: 1e6, ForecastBps: 90e6,
		Updated: time.Date(2000, 11, 6, 8, 1, 0, 0, time.UTC),
	}
	if err := s.PublishPathHealth(p); err != nil {
		t.Fatal(err)
	}
	got, err := s.PathHealthFor("lbnl", "anl")
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Fatalf("round trip: got %+v want %+v", got, p)
	}
	// Directed: the reverse pair has no record.
	if _, err := s.PathHealthFor("anl", "lbnl"); err == nil {
		t.Fatal("reverse path health returned")
	}
	p.Status = HealthOK
	if err := s.PublishPathHealth(p); err != nil {
		t.Fatal(err)
	}
	all, err := s.PathHealths()
	if err != nil || len(all) != 1 {
		t.Fatalf("PathHealths = %v, %v", all, err)
	}
	if all[0].Status != HealthOK {
		t.Fatalf("after upsert: %+v", all[0])
	}
}
