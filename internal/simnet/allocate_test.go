package simnet

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"esgrid/internal/vtime"
)

// buildRandomScenario creates a random topology and a set of synthetic
// flows over it, returning the net and flows (not registered; allocate
// takes them directly).
func buildRandomScenario(rng *rand.Rand) (*Net, []*flow) {
	clk := vtime.NewSim(rng.Int63())
	n := New(clk)
	nHosts := 2 + rng.Intn(5)
	hosts := make([]*Host, nHosts)
	for i := 0; i < nHosts; i++ {
		name := string(rune('a' + i))
		cfg := HostConfig{}
		if rng.Intn(3) == 0 {
			cfg.CPU = GigabitHostCPU(1 + float64(rng.Intn(8)))
		}
		if rng.Intn(3) == 0 {
			cfg.DiskBps = 50e6 + rng.Float64()*500e6
		}
		hosts[i] = n.AddHost(name, cfg)
	}
	// Random connected-ish topology: chain plus extra links.
	for i := 1; i < nHosts; i++ {
		n.AddLink(hosts[i-1].name, hosts[i].name, LinkConfig{
			CapacityBps: 10e6 + rng.Float64()*1e9,
			Delay:       1e6, // 1ms
		})
	}
	for k := rng.Intn(3); k > 0; k-- {
		a, b := rng.Intn(nHosts), rng.Intn(nHosts)
		if a != b {
			n.AddLink(hosts[a].name, hosts[b].name, LinkConfig{
				CapacityBps: 10e6 + rng.Float64()*1e9,
				Delay:       1e6,
			})
		}
	}
	nFlows := 1 + rng.Intn(12)
	var flows []*flow
	for i := 0; i < nFlows; i++ {
		src := hosts[rng.Intn(nHosts)]
		dst := hosts[rng.Intn(nHosts)]
		if src == dst {
			continue
		}
		path, err := n.routeLocked(src.name, dst.name)
		if err != nil {
			continue
		}
		f := &flow{
			net: n, src: src, dst: dst, path: path, mss: DefaultMSS,
			windowCap: 1e6 + rng.Float64()*2e9,
			diskBound: rng.Intn(2) == 0,
			active:    true,
		}
		flows = append(flows, f)
	}
	return n, flows
}

// TestQuickAllocateInvariants checks max-min fairness invariants on
// random scenarios: non-negative rates, window caps respected, no
// resource over capacity, and Pareto efficiency (every flow is blocked
// by either its cap or a saturated resource).
func TestQuickAllocateInvariants(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, flows := buildRandomScenario(rng)
		if len(flows) == 0 {
			return true
		}
		rates := n.allocate(flows)
		// Per-resource usage.
		usage := map[*res]float64{}
		capOf := map[*res]float64{}
		for i, f := range flows {
			if rates[i] < 0 {
				t.Logf("negative rate %v", rates[i])
				return false
			}
			if rates[i] > f.windowCap*(1+1e-6)+1 {
				t.Logf("rate %v exceeds window cap %v", rates[i], f.windowCap)
				return false
			}
			for _, rr := range f.refs() {
				usage[rr.r] += rates[i] * rr.w
				capOf[rr.r] = rr.r.effective()
			}
		}
		for r, u := range usage {
			if u > capOf[r]*(1+1e-6)+1 {
				t.Logf("resource %s over capacity: %v > %v", r.name, u, capOf[r])
				return false
			}
		}
		// Pareto: each flow is limited by something.
		for i, f := range flows {
			if rates[i] >= f.windowCap*(1-1e-6) {
				continue
			}
			blocked := false
			for _, rr := range f.refs() {
				if usage[rr.r] >= capOf[rr.r]*(1-1e-6)-1 {
					blocked = true
					break
				}
			}
			if !blocked {
				t.Logf("flow %d unblocked at %v (cap %v)", i, rates[i], f.windowCap)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestAllocateEqualShares checks the textbook case: k identical flows on
// one link share it equally.
func TestAllocateEqualShares(t *testing.T) {
	clk := vtime.NewSim(1)
	n := New(clk)
	a := n.AddHost("a", HostConfig{})
	b := n.AddHost("b", HostConfig{})
	n.AddLink("a", "b", LinkConfig{CapacityBps: 100e6, Delay: 1e6})
	path, _ := n.routeLocked("a", "b")
	var flows []*flow
	for i := 0; i < 4; i++ {
		flows = append(flows, &flow{net: n, src: a, dst: b, path: path, mss: DefaultMSS,
			windowCap: math.Inf(1), active: true})
	}
	rates := n.allocate(flows)
	for i, r := range rates {
		if math.Abs(r-25e6) > 1 {
			t.Fatalf("flow %d rate = %v, want 25e6", i, r)
		}
	}
}

// TestAllocateCapAndShare checks a mixed case: one window-capped flow
// leaves its unused share to an uncapped competitor.
func TestAllocateCapAndShare(t *testing.T) {
	clk := vtime.NewSim(1)
	n := New(clk)
	a := n.AddHost("a", HostConfig{})
	b := n.AddHost("b", HostConfig{})
	n.AddLink("a", "b", LinkConfig{CapacityBps: 100e6, Delay: 1e6})
	path, _ := n.routeLocked("a", "b")
	capped := &flow{net: n, src: a, dst: b, path: path, mss: DefaultMSS, windowCap: 10e6, active: true}
	greedy := &flow{net: n, src: a, dst: b, path: path, mss: DefaultMSS, windowCap: math.Inf(1), active: true}
	rates := n.allocate([]*flow{capped, greedy})
	if math.Abs(rates[0]-10e6) > 1 {
		t.Fatalf("capped rate = %v", rates[0])
	}
	if math.Abs(rates[1]-90e6) > 1 {
		t.Fatalf("greedy rate = %v, want the leftover 90e6", rates[1])
	}
}
