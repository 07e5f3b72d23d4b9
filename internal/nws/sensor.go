package nws

import (
	"fmt"
	"math"
	"sync"
	"time"

	"esgrid/internal/mds"
	"esgrid/internal/netlogger"
	"esgrid/internal/vtime"
)

// Provenance site tag(s) for the delays this package schedules on
// the virtual clock (flight-recorder attribution).
var siteProbePeriod = vtime.RegisterSite("nws.probe-period")

// Prober takes one bandwidth/latency measurement for a directed host
// pair. The simulator-backed prober estimates the rate a new flow would
// get (plus measurement noise); a real-network prober would run a short
// probe transfer.
type Prober interface {
	Probe(from, to string) (bandwidthBps float64, latency time.Duration, err error)
}

// ProbeFunc adapts a function to the Prober interface.
type ProbeFunc func(from, to string) (float64, time.Duration, error)

// Probe implements Prober.
func (f ProbeFunc) Probe(from, to string) (float64, time.Duration, error) { return f(from, to) }

// Publisher receives finished forecasts; *mds.Service satisfies it.
type Publisher interface {
	PublishForecast(mds.NetForecast) error
}

// Sensor periodically measures one or more host pairs and publishes
// adaptive forecasts.
type Sensor struct {
	clk    vtime.Clock
	prober Prober
	pub    Publisher
	period time.Duration

	mu    sync.Mutex
	log   *netlogger.Log
	host  string
	pairs []pair
	state map[[2]string]*pairState
}

type pair struct{ from, to string }

type pairState struct {
	bw       *Adaptive
	lat      *Adaptive
	lastAt   time.Time
	failures int // consecutive probe errors; reset on success
}

// NewSensor creates a sensor taking a measurement of every registered
// pair each period.
func NewSensor(clk vtime.Clock, prober Prober, pub Publisher, period time.Duration) *Sensor {
	return &Sensor{
		clk: clk, prober: prober, pub: pub, period: period,
		state: map[[2]string]*pairState{},
	}
}

// Instrument routes probe-failure events into log, attributed to host
// (the site running the sensor). Probe errors were previously dropped on
// the floor; with a log attached every failure emits an nws.probe.error
// event carrying the pair, the error, and the consecutive-failure count,
// so an online consumer can tell a transient blip from a dead sensor.
func (s *Sensor) Instrument(log *netlogger.Log, host string) {
	s.mu.Lock()
	s.log = log
	s.host = host
	s.mu.Unlock()
}

// Watch registers a directed pair for measurement.
func (s *Sensor) Watch(from, to string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := [2]string{from, to}
	if _, dup := s.state[key]; dup {
		return
	}
	s.pairs = append(s.pairs, pair{from, to})
	s.state[key] = &pairState{bw: NewAdaptive(), lat: NewAdaptive()}
}

// Start launches the measurement loop on the clock's scheduler.
func (s *Sensor) Start() {
	s.clk.Go(s.loop)
}

func (s *Sensor) loop() {
	for {
		vtime.SleepTagged(s.clk, siteProbePeriod, s.period)
		s.mu.Lock()
		ps := append([]pair(nil), s.pairs...)
		s.mu.Unlock()
		for _, p := range ps {
			s.measureOnce(p)
		}
	}
}

// measureOnce probes one pair and publishes the updated forecast.
func (s *Sensor) measureOnce(p pair) {
	bw, lat, err := s.prober.Probe(p.from, p.to)
	if err != nil {
		s.mu.Lock()
		st := s.state[[2]string{p.from, p.to}]
		var n int
		if st != nil {
			st.failures++
			n = st.failures
		}
		log, host := s.log, s.host
		s.mu.Unlock()
		if log != nil {
			log.Emit(host, "nws.probe.error",
				"from", p.from, "to", p.to,
				"err", err.Error(), "consecutive", fmt.Sprint(n))
		}
		return
	}
	now := s.clk.Now()
	s.mu.Lock()
	st := s.state[[2]string{p.from, p.to}]
	if st == nil {
		s.mu.Unlock()
		return
	}
	st.failures = 0
	st.bw.Observe(bw)
	st.lat.Observe(float64(lat))
	st.lastAt = now
	fbw := st.bw.Predict()
	flat := st.lat.Predict()
	ferr := st.bw.MAE()
	s.mu.Unlock()
	if math.IsNaN(fbw) {
		fbw = bw
	}
	if math.IsNaN(flat) {
		flat = float64(lat)
	}
	if math.IsNaN(ferr) {
		ferr = 0
	}
	if s.pub != nil {
		_ = s.pub.PublishForecast(mds.NetForecast{
			From: p.from, To: p.to,
			BandwidthBps: fbw,
			Latency:      time.Duration(flat),
			ErrBps:       ferr,
			Measured:     now,
		})
	}
}

// MeasureNow forces an immediate measurement round (useful in tests and
// experiment warm-up).
func (s *Sensor) MeasureNow() {
	s.mu.Lock()
	ps := append([]pair(nil), s.pairs...)
	s.mu.Unlock()
	for _, p := range ps {
		s.measureOnce(p)
	}
}
