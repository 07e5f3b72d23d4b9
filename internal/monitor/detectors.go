package monitor

import (
	"fmt"
	"time"

	"esgrid/internal/netlogger"
)

// Detector names, used as the Alert.Detector tag and as the key health
// derivation switches on.
const (
	DetectorStall       = "stall"
	DetectorCollapse    = "collapse"
	DetectorRetryStorm  = "retry-storm"
	DetectorTeardownGap = "teardown-gap"
	DetectorSensorDead  = "sensor-dead"
)

// detectLocked routes one ingested event, after its own state update,
// to the detector that watches its name. The four event-driven
// detectors watch disjoint names, so no event reaches two of them; the
// fifth, the stall watchdog, runs on each tick (stallLocked). All run
// with the monitor's lock held.
func (m *Monitor) detectLocked(ev netlogger.Event) {
	switch ev.Name {
	case "rm.progress":
		m.collapseLocked(ev)
	case "rm.attempt.start":
		m.retryStormLocked(ev)
	case "gridftp.retr.start", "gridftp.retr.end":
		m.teardownGapLocked(ev)
	case "nws.probe.error":
		m.sensorDeadLocked(ev)
	}
}

// stallLocked is the stalled-transfer watchdog: a transfer that has
// attempted at least once but advanced no bytes for stallAfter is
// stalled. Tape staging gets its own, longer allowance (staging
// legitimately moves no client-visible bytes). An episode alerts once;
// any byte advance re-arms.
func (m *Monitor) stallLocked(now time.Time) {
	for _, name := range m.tOrder {
		t := m.transfers[name]
		if t.State == "done" || t.Attempts == 0 || t.stallAlerted {
			continue
		}
		if t.staging {
			if idle := now.Sub(t.stagingSince); idle >= stageStallAfter {
				t.stallAlerted = true
				m.raiseLocked(now, DetectorStall, t.Replica, t.File,
					fmt.Sprintf("tape staging idle %.1fs (limit %.1fs)",
						idle.Seconds(), stageStallAfter.Seconds()))
			}
			continue
		}
		if t.lastAdvance.IsZero() {
			continue
		}
		if idle := now.Sub(t.lastAdvance); idle >= stallAfter {
			t.stallAlerted = true
			m.raiseLocked(now, DetectorStall, t.Replica, t.File,
				fmt.Sprintf("no byte progress for %.1fs (limit %.1fs)",
					idle.Seconds(), stallAfter.Seconds()))
		}
	}
}

// collapseLocked compares each progress sample against the NWS forecast
// for the transfer's path: collapseStreak consecutive samples below
// collapseFraction×forecast mean the path collapsed under its predicted
// capacity — the residual signature the SC'00 operators spotted by eye
// on the Dallas↔Berkeley link. Zero-rate samples are the stall
// watchdog's business and are excluded here.
func (m *Monitor) collapseLocked(ev netlogger.Event) {
	t := m.transfers[ev.Fields["file"]]
	if t == nil || t.Replica == "" || t.RateBps <= 0 {
		return
	}
	fc, ok := m.forecast(t.Replica, t.Dest)
	if !ok {
		return
	}
	if t.RateBps < collapseFraction*fc {
		t.lowStreak++
		if t.lowStreak >= collapseStreak && !t.lowAlerted {
			t.lowAlerted = true
			m.raiseLocked(ev.Time, DetectorCollapse, t.Replica, t.File,
				fmt.Sprintf("rate %.1f Mb/s < %.0f%% of %.1f Mb/s forecast for %d samples",
					t.RateBps/1e6, collapseFraction*100, fc/1e6, t.lowStreak))
		}
	} else {
		t.lowStreak = 0
		t.lowAlerted = false
	}
}

// forecast is the collapse baseline: the NWS bandwidth forecast Info
// holds for a directed pair (none without Info).
func (m *Monitor) forecast(from, to string) (float64, bool) {
	if m.cfg.Info == nil {
		return 0, false
	}
	f, err := m.cfg.Info.Forecast(from, to)
	if err != nil || f.BandwidthBps <= 0 {
		return 0, false
	}
	return f.BandwidthBps, true
}

// retryStormLocked counts retry attempts (rm.attempt.start with n>1)
// per replica host inside a sliding window; crossing the threshold
// raises one alert, suppressed for a window so a single storm doesn't
// spam.
func (m *Monitor) retryStormLocked(ev netlogger.Event) {
	if ev.Fields["n"] == "1" || ev.Fields["n"] == "" {
		return
	}
	host := ev.Fields["replica"]
	if host == "" {
		return
	}
	h := m.host(host)
	h.retries = append(h.retries, ev.Time)
	keep := h.retries[:0]
	for _, r := range h.retries {
		if ev.Time.Sub(r) <= retryWindow {
			keep = append(keep, r)
		}
	}
	h.retries = keep
	if len(h.retries) >= retryThreshold &&
		(h.lastStorm.IsZero() || ev.Time.Sub(h.lastStorm) > retryWindow) {
		h.lastStorm = ev.Time
		m.raiseLocked(ev.Time, DetectorRetryStorm, host, host,
			fmt.Sprintf("%d retries within %.0fs", len(h.retries), retryWindow.Seconds()))
	}
}

// teardownGapLocked watches the idle gap between consecutive GridFTP
// retrievals served by the same host — the paper's ~0.8 s per-file TCP
// teardown cost. It learns a per-host baseline mean from healthy gaps
// and alerts when a gap regresses past gapFactor× that baseline.
func (m *Monitor) teardownGapLocked(ev netlogger.Event) {
	h := m.host(ev.Host)
	if ev.Name == "gridftp.retr.end" {
		h.lastRetrEnd = ev.Time
		return
	}
	if h.lastRetrEnd.IsZero() {
		return
	}
	gap := ev.Time.Sub(h.lastRetrEnd).Seconds()
	if h.gapN >= 3 && gap > gapFactor*h.gapMean && gap > gapMin.Seconds() {
		m.raiseLocked(ev.Time, DetectorTeardownGap, ev.Host, ev.Host,
			fmt.Sprintf("inter-retrieval gap %.2fs vs %.2fs baseline", gap, h.gapMean))
		return // regressed gaps don't poison the baseline
	}
	h.gapN++
	h.gapMean += (gap - h.gapMean) / float64(h.gapN)
}

// sensorDeadLocked listens for the nws.probe.error events the sensor
// emits and alerts when a pair's consecutive failure count reaches
// sensorFailures — exactly once per outage, since the counter resets on
// the first success.
func (m *Monitor) sensorDeadLocked(ev netlogger.Event) {
	if ev.Fields["consecutive"] != fmt.Sprint(sensorFailures) {
		return
	}
	pair := ev.Fields["from"] + "->" + ev.Fields["to"]
	m.raiseLocked(ev.Time, DetectorSensorDead, ev.Fields["from"], pair,
		fmt.Sprintf("%d consecutive probe failures: %s", sensorFailures, ev.Fields["err"]))
}
