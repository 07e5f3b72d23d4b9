package simnet

import (
	"strings"
	"testing"
	"time"

	"esgrid/internal/vtime"
)

// pathString renders a route as "a->x x->b".
func pathString(p []*simplex) string {
	names := make([]string, len(p))
	for i, s := range p {
		names[i] = s.name
	}
	return strings.Join(names, " ")
}

// TestRouteTieBreak pins the path routeLocked picks when two routes have
// the same hop count: the one through the node the search dequeues
// first, that is the node whose link to the source was added first,
// whatever order the links beyond it were added in.
func TestRouteTieBreak(t *testing.T) {
	for _, tc := range []struct {
		name  string
		links [][2]string
		want  string
	}{
		{"x first", [][2]string{{"a", "x"}, {"a", "y"}, {"x", "b"}, {"y", "b"}}, "a->x x->b"},
		{"y first", [][2]string{{"a", "y"}, {"a", "x"}, {"x", "b"}, {"y", "b"}}, "a->y y->b"},
		{"far side reversed", [][2]string{{"a", "x"}, {"a", "y"}, {"y", "b"}, {"x", "b"}}, "a->x x->b"},
		{"three hops", [][2]string{{"a", "x"}, {"a", "y"}, {"y", "z"}, {"x", "w"}, {"z", "b"}, {"w", "b"}}, "a->x x->w w->b"},
		{"shorter wins", [][2]string{{"a", "x"}, {"x", "w"}, {"w", "b"}, {"a", "y"}, {"y", "b"}}, "a->y y->b"},
	} {
		n := New(vtime.NewSim(1))
		for _, l := range tc.links {
			n.AddLink(l[0], l[1], LinkConfig{CapacityBps: gbps})
		}
		p, err := n.routeLocked("a", "b")
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := pathString(p); got != tc.want {
			t.Errorf("%s: route a->b = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestRouteAllocs guards the route cache: a new route costs only the
// path slice it caches, and a cached one costs nothing, so a run that
// dials many new host pairs pays one allocation per pair.
func TestRouteAllocs(t *testing.T) {
	n := New(vtime.NewSim(1))
	n.AddLink("a", "r1", LinkConfig{CapacityBps: gbps})
	n.AddLink("r1", "r2", LinkConfig{CapacityBps: gbps})
	n.AddLink("r2", "b", LinkConfig{CapacityBps: gbps})
	n.AddLink("r1", "c", LinkConfig{CapacityBps: gbps})
	if _, err := n.routeLocked("b", "c"); err != nil { // size the scratch and the cache
		t.Fatal(err)
	}
	key := [2]string{"a", "b"}
	var err error
	fresh := testing.AllocsPerRun(100, func() {
		delete(n.routes, key)
		if _, e := n.routeLocked("a", "b"); e != nil {
			err = e
		}
	})
	cached := testing.AllocsPerRun(100, func() {
		if _, e := n.routeLocked("a", "b"); e != nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if fresh != 1 {
		t.Errorf("a new route allocates %.1f objects, want 1 (its path)", fresh)
	}
	if cached != 0 {
		t.Errorf("a cached route allocates %.1f objects, want 0", cached)
	}
	if got, want := pathString(n.routes[key]), "a->r1 r1->r2 r2->b"; got != want {
		t.Errorf("route a->b = %q, want %q", got, want)
	}
}

// TestConnAllocs prices a new connection over cached routes: one
// allocation holds the Conn, its endpoints, its flows and their
// resource lists; addresses are formatted only when asked for. A flow's
// events are typed (flow.Fire), so no callback is bound per flow; the
// conds come from the Sim's slab. A new route adds its path slice per
// direction (TestRouteAllocs).
func TestConnAllocs(t *testing.T) {
	n := New(vtime.NewSim(1))
	a := n.AddHost("a", HostConfig{})
	b := n.AddHost("b", HostConfig{})
	n.AddLink("a", "b", LinkConfig{CapacityBps: gbps, Delay: time.Millisecond})
	fwd, err := n.routeLocked("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	rev, err := n.routeLocked("b", "a")
	if err != nil {
		t.Fatal(err)
	}
	var c *Conn
	allocs := testing.AllocsPerRun(100, func() {
		c = n.newConnLocked(a, b, sockAddr{"b", 9000}, fwd, rev)
		c.flows[0].refs()
		c.flows[1].refs()
	})
	if allocs != 1 {
		t.Errorf("a new Conn allocates %.1f objects, want 1 (the Conn)", allocs)
	}
	if c.flows[0].rtt != 2*time.Millisecond || c.flows[1].conn != c {
		t.Errorf("conn built with rtt %v, flow 1 on conn %p, want 2ms on %p", c.flows[0].rtt, c.flows[1].conn, c)
	}
}
