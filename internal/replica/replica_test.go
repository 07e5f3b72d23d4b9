package replica

import (
	"errors"
	"testing"

	"esgrid/internal/ldapd"
)

// figure6 builds the catalog state of the paper's Figure 6.
func figure6(t *testing.T) *Catalog {
	t.Helper()
	c, err := New(ldapd.NewDir())
	if err != nil {
		t.Fatal(err)
	}
	files := []string{"jan98.nc", "feb98.nc", "mar98.nc"}
	if err := c.CreateCollection("CO2 measurements 1998", files); err != nil {
		t.Fatal(err)
	}
	if err := c.AddLocation("CO2 measurements 1998", Location{
		Host: "jupiter.isi.edu", Protocol: "gsiftp", Port: 2811, Path: "/data/co2",
		Files: []string{"jan98.nc", "feb98.nc"}, // partial copy
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddLocation("CO2 measurements 1998", Location{
		Host: "sprite.llnl.gov", Protocol: "gsiftp", Port: 2811, Path: "/pcmdi/co2",
		Files: files, // complete copy
	}); err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if err := c.RegisterLogicalFile("CO2 measurements 1998", f, 1<<30); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestFigure6Lookups(t *testing.T) {
	c := figure6(t)
	files, err := c.Files("CO2 measurements 1998")
	if err != nil || len(files) != 3 {
		t.Fatalf("files = %v, %v", files, err)
	}
	// jan98 is at both sites.
	locs, err := c.LocationsFor("CO2 measurements 1998", "jan98.nc")
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 2 {
		t.Fatalf("jan98 replicas = %d, want 2", len(locs))
	}
	// mar98 only at the complete location.
	locs, err = c.LocationsFor("CO2 measurements 1998", "mar98.nc")
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 1 || locs[0].Host != "sprite.llnl.gov" {
		t.Fatalf("mar98 replicas = %+v", locs)
	}
}

func TestURLConstruction(t *testing.T) {
	l := Location{Host: "sprite.llnl.gov", Protocol: "gsiftp", Port: 2811, Path: "/pcmdi/co2/"}
	if got := l.URL("mar98.nc"); got != "gsiftp://sprite.llnl.gov:2811/pcmdi/co2/mar98.nc" {
		t.Fatalf("URL = %q", got)
	}
}

func TestErrorsAreSentinels(t *testing.T) {
	c := figure6(t)
	if _, err := c.Files("nope"); !errors.Is(err, ErrNoSuchCollection) {
		t.Errorf("Files: %v", err)
	}
	if _, err := c.LocationsFor("CO2 measurements 1998", "dec98.nc"); !errors.Is(err, ErrNoSuchFile) {
		t.Errorf("LocationsFor missing file: %v", err)
	}
	if err := c.AddFilesToLocation("CO2 measurements 1998", "nowhere.gov", "x.nc"); !errors.Is(err, ErrNoSuchLocation) {
		t.Errorf("AddFilesToLocation: %v", err)
	}
	// A file in a collection but at no location.
	c.CreateCollection("CO2 measurements 1999", []string{"apr99.nc"})
	if _, err := c.LocationsFor("CO2 measurements 1999", "apr99.nc"); !errors.Is(err, ErrNoReplicas) {
		t.Errorf("LocationsFor unreplicated file: %v", err)
	}
}

func TestReplicaLifecycle(t *testing.T) {
	c := figure6(t)
	coll := "CO2 measurements 1998"
	// jupiter completes its copy.
	if err := c.AddFilesToLocation(coll, "jupiter.isi.edu", "mar98.nc"); err != nil {
		t.Fatal(err)
	}
	locs, _ := c.LocationsFor(coll, "mar98.nc")
	if len(locs) != 2 {
		t.Fatalf("after AddFilesToLocation: %d replicas, want 2", len(locs))
	}
}

func TestFileSize(t *testing.T) {
	c := figure6(t)
	if n, ok := c.FileSize("CO2 measurements 1998", "jan98.nc"); !ok || n != 1<<30 {
		t.Fatalf("FileSize = %d, %v", n, ok)
	}
	if _, ok := c.FileSize("CO2 measurements 1998", "unregistered.nc"); ok {
		t.Fatal("size for unregistered file")
	}
}

func TestStagedLocationFlag(t *testing.T) {
	c, _ := New(ldapd.NewDir())
	c.CreateCollection("pcm", []string{"a.nc"})
	c.AddLocation("pcm", Location{Host: "hpss.lbl.gov", Protocol: "gsiftp", Port: 2811, Path: "/mss", Files: []string{"a.nc"}, Staged: true})
	locs, err := c.LocationsFor("pcm", "a.nc")
	if err != nil {
		t.Fatal(err)
	}
	if !locs[0].Staged {
		t.Fatal("staged flag lost")
	}
}

func TestTwoCatalogRootsCoexist(t *testing.T) {
	dir := ldapd.NewDir()
	a, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	// New() on a directory that already has the root must not fail.
	b, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	a.CreateCollection("x", []string{"f"})
	if files, err := b.Files("x"); err != nil || len(files) != 1 {
		t.Fatalf("second handle: %v %v", files, err)
	}
}
