// Package mds reproduces the role of the Metacomputing/Monitoring and
// Discovery Service (Czajkowski et al. 2001) in the ESG prototype: a
// directory-backed information service in which grid resources (hosts,
// storage systems, GridFTP servers) register themselves and through which
// the Network Weather Service publishes its bandwidth and latency
// forecasts (§5: "NWS information is accessed by the MDS information
// service"). The request manager reads replica-selection inputs from
// here, never from NWS directly, exactly as in the paper.
package mds

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"time"

	"esgrid/internal/ldapd"
)

// Base is the default DIT suffix for the ESG virtual organization.
const Base = "mds-vo-name=esg"

// Service is an MDS view over a directory.
type Service struct {
	dir  *ldapd.Dir
	base string
}

// New returns a Service rooted at Base, creating the root entry if this
// directory does not have one yet.
func New(dir *ldapd.Dir) (*Service, error) {
	s := &Service{dir: dir, base: Base}
	err := dir.Add(Base, map[string][]string{"objectclass": {"mdsvo"}})
	if err != nil && !isExists(err) {
		return nil, err
	}
	for _, ou := range []string{"ou=hosts", "ou=network", "ou=services", "ou=health"} {
		if err := dir.Add(ou+","+Base, map[string][]string{"objectclass": {"organizationalunit"}}); err != nil && !isExists(err) {
			return nil, err
		}
	}
	return s, nil
}

func isExists(err error) bool { return errors.Is(err, ldapd.ErrEntryExists) }

// HostInfo describes a registered compute/storage host.
type HostInfo struct {
	Name     string
	Site     string
	Services []string // e.g. "gridftp:2811", "hrm:4000"
}

// RegisterHost upserts a host record.
func (s *Service) RegisterHost(h HostInfo) error {
	dn := fmt.Sprintf("hn=%s,ou=hosts,%s", h.Name, s.base)
	attrs := map[string][]string{
		"objectclass": {"grishost"},
		"hn":          {h.Name},
		"site":        {h.Site},
	}
	if len(h.Services) > 0 {
		attrs["service"] = h.Services
	}
	err := s.dir.Add(dn, attrs)
	if isExists(err) {
		mods := []ldapd.Mod{
			{Op: ldapd.ModReplace, Attr: "site", Values: []string{h.Site}},
			{Op: ldapd.ModReplace, Attr: "service", Values: h.Services},
		}
		return s.dir.Modify(dn, mods)
	}
	return err
}

// NetForecast is one published NWS forecast for a directed host pair.
type NetForecast struct {
	From, To     string
	BandwidthBps float64       // forecast available bandwidth
	Latency      time.Duration // forecast round-trip latency
	ErrBps       float64       // forecaster's error estimate (MAE)
	Measured     time.Time     // when the underlying measurement was taken
}

func pairDN(base, from, to string) string {
	return fmt.Sprintf("np=%s->%s,ou=network,%s", from, to, base)
}

// PublishForecast upserts the forecast record for a host pair.
func (s *Service) PublishForecast(f NetForecast) error {
	dn := pairDN(s.base, f.From, f.To)
	vals := map[string][]string{
		"objectclass":  {"nwsforecast"},
		"from":         {f.From},
		"to":           {f.To},
		"bandwidthbps": {formatFloat(f.BandwidthBps)},
		"latencyns":    {strconv.FormatInt(int64(f.Latency), 10)},
		"errbps":       {formatFloat(f.ErrBps)},
		"measured":     {f.Measured.UTC().Format(time.RFC3339Nano)},
	}
	return s.upsert(dn, vals)
}

// Forecast retrieves the forecast for a directed pair, or an error if no
// measurement has been published.
func (s *Service) Forecast(from, to string) (NetForecast, error) {
	es, err := s.dir.Search(pairDN(s.base, from, to), ldapd.ScopeBase, "")
	if err != nil {
		return NetForecast{}, fmt.Errorf("mds: no forecast for %s->%s: %w", from, to, err)
	}
	return decodeForecast(es[0])
}

// AllForecasts returns every published pair forecast.
func (s *Service) AllForecasts() ([]NetForecast, error) {
	es, err := s.dir.Search("ou=network,"+s.base, ldapd.ScopeSub, "(objectclass=nwsforecast)")
	if err != nil {
		return nil, err
	}
	out := make([]NetForecast, 0, len(es))
	for _, e := range es {
		f, err := decodeForecast(e)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

func decodeForecast(e *ldapd.Entry) (NetForecast, error) {
	bw, err := strconv.ParseFloat(e.Get("bandwidthbps"), 64)
	if err != nil {
		return NetForecast{}, fmt.Errorf("mds: bad bandwidth in %s: %w", e.DN, err)
	}
	lat, err := strconv.ParseInt(e.Get("latencyns"), 10, 64)
	if err != nil {
		return NetForecast{}, fmt.Errorf("mds: bad latency in %s: %w", e.DN, err)
	}
	errBps, _ := strconv.ParseFloat(e.Get("errbps"), 64)
	measured, _ := time.Parse(time.RFC3339Nano, e.Get("measured"))
	return NetForecast{
		From:         e.Get("from"),
		To:           e.Get("to"),
		BandwidthBps: bw,
		Latency:      time.Duration(lat),
		ErrBps:       errBps,
		Measured:     measured,
	}, nil
}

func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// Health status values published by the monitor plane. "down" marks a
// host/path with an active stall-class alert, "degraded" one with a
// throughput or retry anomaly, "ok" everything else.
const (
	HealthOK       = "ok"
	HealthDegraded = "degraded"
	HealthDown     = "down"
)

// HostHealth is the monitor plane's published verdict on one host.
type HostHealth struct {
	Host            string
	Status          string // ok | degraded | down
	GoodputBps      float64
	ActiveTransfers int
	Alerts          int // alerts charged to this host so far
	Updated         time.Time
}

// PathHealth is the monitor plane's verdict on a directed host pair,
// pairing the observed transfer rate with the NWS forecast it deviated
// from (the residual the collapse detector alarms on).
type PathHealth struct {
	From, To    string
	Status      string
	ObservedBps float64
	ForecastBps float64
	Updated     time.Time
}

func hostHealthDN(base, host string) string {
	return fmt.Sprintf("hh=%s,ou=health,%s", host, base)
}

func pathHealthDN(base, from, to string) string {
	return fmt.Sprintf("hp=%s->%s,ou=health,%s", from, to, base)
}

// PublishHostHealth upserts the health record for a host.
func (s *Service) PublishHostHealth(h HostHealth) error {
	vals := map[string][]string{
		"objectclass": {"monhosthealth"},
		"hh":          {h.Host},
		"status":      {h.Status},
		"goodputbps":  {formatFloat(h.GoodputBps)},
		"active":      {strconv.Itoa(h.ActiveTransfers)},
		"alerts":      {strconv.Itoa(h.Alerts)},
		"updated":     {h.Updated.UTC().Format(time.RFC3339Nano)},
	}
	return s.upsert(hostHealthDN(s.base, h.Host), vals)
}

// PublishPathHealth upserts the health record for a directed pair.
func (s *Service) PublishPathHealth(p PathHealth) error {
	vals := map[string][]string{
		"objectclass": {"monpathhealth"},
		"from":        {p.From},
		"to":          {p.To},
		"status":      {p.Status},
		"observedbps": {formatFloat(p.ObservedBps)},
		"forecastbps": {formatFloat(p.ForecastBps)},
		"updated":     {p.Updated.UTC().Format(time.RFC3339Nano)},
	}
	return s.upsert(pathHealthDN(s.base, p.From, p.To), vals)
}

func (s *Service) upsert(dn string, vals map[string][]string) error {
	err := s.dir.Add(dn, vals)
	if isExists(err) {
		// Replace attributes in sorted order so the directory's mod
		// sequence — and any event stream folded from it — does not
		// depend on map iteration order.
		attrs := make([]string, 0, len(vals))
		for k := range vals {
			attrs = append(attrs, k)
		}
		sort.Strings(attrs)
		mods := make([]ldapd.Mod, 0, len(vals))
		for _, k := range attrs {
			mods = append(mods, ldapd.Mod{Op: ldapd.ModReplace, Attr: k, Values: vals[k]})
		}
		return s.dir.Modify(dn, mods)
	}
	return err
}

// HostHealthFor reads one host's health record; an error means no record
// has been published (callers should treat that as HealthOK).
func (s *Service) HostHealthFor(host string) (HostHealth, error) {
	es, err := s.dir.Search(hostHealthDN(s.base, host), ldapd.ScopeBase, "")
	if err != nil {
		return HostHealth{}, fmt.Errorf("mds: no health for host %s: %w", host, err)
	}
	return decodeHostHealth(es[0]), nil
}

// PathHealthFor reads the health record for a directed pair.
func (s *Service) PathHealthFor(from, to string) (PathHealth, error) {
	es, err := s.dir.Search(pathHealthDN(s.base, from, to), ldapd.ScopeBase, "")
	if err != nil {
		return PathHealth{}, fmt.Errorf("mds: no health for path %s->%s: %w", from, to, err)
	}
	return decodePathHealth(es[0]), nil
}

// HostHealths returns all published host health records.
func (s *Service) HostHealths() ([]HostHealth, error) {
	es, err := s.dir.Search("ou=health,"+s.base, ldapd.ScopeSub, "(objectclass=monhosthealth)")
	if err != nil {
		return nil, err
	}
	out := make([]HostHealth, 0, len(es))
	for _, e := range es {
		out = append(out, decodeHostHealth(e))
	}
	return out, nil
}

// PathHealths returns all published path health records.
func (s *Service) PathHealths() ([]PathHealth, error) {
	es, err := s.dir.Search("ou=health,"+s.base, ldapd.ScopeSub, "(objectclass=monpathhealth)")
	if err != nil {
		return nil, err
	}
	out := make([]PathHealth, 0, len(es))
	for _, e := range es {
		out = append(out, decodePathHealth(e))
	}
	return out, nil
}

func decodeHostHealth(e *ldapd.Entry) HostHealth {
	gp, _ := strconv.ParseFloat(e.Get("goodputbps"), 64)
	active, _ := strconv.Atoi(e.Get("active"))
	alerts, _ := strconv.Atoi(e.Get("alerts"))
	updated, _ := time.Parse(time.RFC3339Nano, e.Get("updated"))
	return HostHealth{
		Host:            e.Get("hh"),
		Status:          e.Get("status"),
		GoodputBps:      gp,
		ActiveTransfers: active,
		Alerts:          alerts,
		Updated:         updated,
	}
}

func decodePathHealth(e *ldapd.Entry) PathHealth {
	obs, _ := strconv.ParseFloat(e.Get("observedbps"), 64)
	fc, _ := strconv.ParseFloat(e.Get("forecastbps"), 64)
	updated, _ := time.Parse(time.RFC3339Nano, e.Get("updated"))
	return PathHealth{
		From:        e.Get("from"),
		To:          e.Get("to"),
		Status:      e.Get("status"),
		ObservedBps: obs,
		ForecastBps: fc,
		Updated:     updated,
	}
}
