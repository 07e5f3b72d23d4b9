// Package replica implements the Globus replica catalog of §6.2: logical
// collections of logical files mapped to one or more physical locations,
// stored in an LDAP-style directory exactly as Figure 6 depicts. Location
// entries may hold partial copies of a collection; logical-file entries
// optionally record per-file metadata such as size.
//
// The request manager asks LocationsFor(collection, file) for the replica
// candidates of each file, then ranks them with NWS forecasts.
package replica

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"esgrid/internal/ldapd"
)

// Base is the DIT suffix of the replica catalog.
const Base = "rc=esg"

// Errors returned by the catalog.
var (
	ErrNoSuchCollection = errors.New("replica: no such collection")
	ErrNoSuchFile       = errors.New("replica: logical file not in collection")
	ErrNoReplicas       = errors.New("replica: no locations hold the file")
	ErrNoSuchLocation   = errors.New("replica: no such location")
)

// Location is one physical copy (complete or partial) of a collection.
type Location struct {
	Host     string
	Protocol string // e.g. "gsiftp"
	Port     int
	Path     string   // directory prefix on the storage system
	Files    []string // logical files present at this location
	// Staged marks locations fronted by an HRM (mass storage): files must
	// be staged from tape before transfer (§4).
	Staged bool
}

// URL returns the physical URL for a logical file at this location.
func (l Location) URL(logical string) string {
	return fmt.Sprintf("%s://%s:%d%s/%s", l.Protocol, l.Host, l.Port, strings.TrimSuffix(l.Path, "/"), logical)
}

// Catalog is a replica catalog view over a directory.
type Catalog struct {
	dir *ldapd.Dir
}

// New returns a catalog rooted at Base, creating the root if needed.
func New(dir *ldapd.Dir) (*Catalog, error) {
	err := dir.Add(Base, map[string][]string{"objectclass": {"replicacatalog"}})
	if err != nil && !errors.Is(err, ldapd.ErrEntryExists) {
		return nil, err
	}
	return &Catalog{dir: dir}, nil
}

func collDN(name string) string { return fmt.Sprintf("lc=%s,%s", name, Base) }
func locDN(coll, host string) string {
	return fmt.Sprintf("loc=%s,%s", host, collDN(coll))
}
func fileDN(coll, name string) string {
	return fmt.Sprintf("lf=%s,%s", name, collDN(coll))
}

// CreateCollection registers a logical collection and its file names.
func (c *Catalog) CreateCollection(name string, files []string) error {
	attrs := map[string][]string{
		"objectclass": {"logicalcollection"},
		"lc":          {name},
	}
	if len(files) > 0 {
		attrs["filename"] = files
	}
	return c.dir.Add(collDN(name), attrs)
}

// Files lists the logical files of a collection.
func (c *Catalog) Files(coll string) ([]string, error) {
	es, err := c.dir.Search(collDN(coll), ldapd.ScopeBase, "")
	if err != nil {
		if errors.Is(err, ldapd.ErrNoSuchEntry) {
			return nil, fmt.Errorf("%w: %s", ErrNoSuchCollection, coll)
		}
		return nil, err
	}
	return es[0].GetAll("filename"), nil
}

// AddLocation registers a physical location holding the listed files of
// the collection.
func (c *Catalog) AddLocation(coll string, loc Location) error {
	if _, err := c.Files(coll); err != nil {
		return err
	}
	attrs := map[string][]string{
		"objectclass": {"location"},
		"hostname":    {loc.Host},
		"protocol":    {loc.Protocol},
		"port":        {strconv.Itoa(loc.Port)},
		"path":        {loc.Path},
		"staged":      {strconv.FormatBool(loc.Staged)},
	}
	if len(loc.Files) > 0 {
		attrs["filename"] = loc.Files
	}
	return c.dir.Add(locDN(coll, loc.Host), attrs)
}

// AddFilesToLocation records that the location now also holds files.
func (c *Catalog) AddFilesToLocation(coll, host string, files ...string) error {
	err := c.dir.Modify(locDN(coll, host), []ldapd.Mod{{Op: ldapd.ModAdd, Attr: "filename", Values: files}})
	if errors.Is(err, ldapd.ErrNoSuchEntry) {
		return fmt.Errorf("%w: %s@%s", ErrNoSuchLocation, coll, host)
	}
	return err
}

// Locations lists all locations of the collection.
func (c *Catalog) Locations(coll string) ([]Location, error) {
	es, err := c.dir.Search(collDN(coll), ldapd.ScopeOne, "(objectclass=location)")
	if err != nil {
		if errors.Is(err, ldapd.ErrNoSuchEntry) {
			return nil, fmt.Errorf("%w: %s", ErrNoSuchCollection, coll)
		}
		return nil, err
	}
	out := make([]Location, len(es))
	for i, e := range es {
		out[i] = decodeLocation(e)
	}
	return out, nil
}

func decodeLocation(e *ldapd.Entry) Location {
	port, _ := strconv.Atoi(e.Get("port"))
	staged, _ := strconv.ParseBool(e.Get("staged"))
	return Location{
		Host:     e.Get("hostname"),
		Protocol: e.Get("protocol"),
		Port:     port,
		Path:     e.Get("path"),
		Files:    e.GetAll("filename"),
		Staged:   staged,
	}
}

// LocationsFor returns the locations holding the given logical file —
// the replica candidates the request manager ranks (§4 step 1).
func (c *Catalog) LocationsFor(coll, logical string) ([]Location, error) {
	files, err := c.Files(coll)
	if err != nil {
		return nil, err
	}
	found := false
	for _, f := range files {
		if f == logical {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("%w: %s in %s", ErrNoSuchFile, logical, coll)
	}
	es, err := c.dir.Search(collDN(coll), ldapd.ScopeOne,
		fmt.Sprintf("(&(objectclass=location)(filename=%s))", logical))
	if err != nil {
		return nil, err
	}
	if len(es) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoReplicas, logical)
	}
	out := make([]Location, len(es))
	for i, e := range es {
		out[i] = decodeLocation(e)
	}
	return out, nil
}

// RegisterLogicalFile records optional per-file metadata (Figure 6 shows
// size); entries are optional for catalog scalability, as §6.2 notes.
func (c *Catalog) RegisterLogicalFile(coll, name string, size int64) error {
	err := c.dir.Add(fileDN(coll, name), map[string][]string{
		"objectclass": {"logicalfile"},
		"lf":          {name},
		"size":        {strconv.FormatInt(size, 10)},
	})
	if errors.Is(err, ldapd.ErrNoSuchParent) {
		return fmt.Errorf("%w: %s", ErrNoSuchCollection, coll)
	}
	return err
}

// FileSize returns the registered size of a logical file (0, false if the
// optional entry is absent).
func (c *Catalog) FileSize(coll, name string) (int64, bool) {
	es, err := c.dir.Search(fileDN(coll, name), ldapd.ScopeBase, "")
	if err != nil || len(es) == 0 {
		return 0, false
	}
	n, err := strconv.ParseInt(es[0].Get("size"), 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}
