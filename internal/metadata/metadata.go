// Package metadata implements the CDMS metadata catalog of §3: a
// directory-backed view of climate data as datasets of multidimensional
// variables, with the query that the VCDAT browser performs — from
// application-level attributes (model, variable, time range) to the
// logical file names handed to the request manager. Logical, not
// physical, names are what this catalog yields; physical resolution is
// the replica catalog's job, which is exactly the separation the paper
// calls essential (§3).
package metadata

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"esgrid/internal/climate"
	"esgrid/internal/ldapd"
)

// Base is the DIT suffix of the metadata catalog.
const Base = "mc=esg"

// Errors returned by the catalog.
var (
	ErrNoSuchDataset = errors.New("metadata: no such dataset")
	ErrNoFiles       = errors.New("metadata: no files match the query")
)

// Dataset describes one simulation output collection.
type Dataset struct {
	Name       string
	Model      string
	Collection string // logical collection name in the replica catalog
	Comment    string
	Variables  []string
	From, To   time.Time // inclusive month range
}

// LogicalFile is one catalog entry a query resolves to.
type LogicalFile struct {
	Name     string
	Variable string
	Year     int
	Month    int
	Size     int64
}

// Catalog is a metadata catalog over a directory.
type Catalog struct {
	dir *ldapd.Dir
}

// New returns a catalog rooted at Base, creating the root if needed.
func New(dir *ldapd.Dir) (*Catalog, error) {
	err := dir.Add(Base, map[string][]string{"objectclass": {"metadatacatalog"}})
	if err != nil && !errors.Is(err, ldapd.ErrEntryExists) {
		return nil, err
	}
	return &Catalog{dir: dir}, nil
}

func dsDN(name string) string         { return fmt.Sprintf("ds=%s,%s", name, Base) }
func lfDN(ds, file string) string     { return fmt.Sprintf("lf=%s,%s", file, dsDN(ds)) }
func monthKey(year, month int) string { return fmt.Sprintf("%04d%02d", year, month) }
func keyOf(t time.Time) string        { return monthKey(t.Year(), int(t.Month())) }
func parseKey(s string) (int, int) {
	y, _ := strconv.Atoi(s[:4])
	m, _ := strconv.Atoi(s[4:])
	return y, m
}

// RegisterDataset registers the dataset and one logical-file entry per
// variable-month, using the climate naming convention and the logical
// (full-resolution) file sizes.
func (c *Catalog) RegisterDataset(ds Dataset) error {
	attrs := map[string][]string{
		"objectclass": {"dataset"},
		"ds":          {ds.Name},
		"model":       {ds.Model},
		"collection":  {ds.Collection},
		"comment":     {ds.Comment},
		"variable":    ds.Variables,
		"from":        {keyOf(ds.From)},
		"to":          {keyOf(ds.To)},
	}
	if err := c.dir.Add(dsDN(ds.Name), attrs); err != nil {
		return err
	}
	for _, ym := range climate.MonthsBetween(ds.From, ds.To) {
		for _, v := range ds.Variables {
			name := climate.FileName(ds.Model, v, ym[0], ym[1])
			fa := map[string][]string{
				"objectclass": {"logicalfile"},
				"lf":          {name},
				"variable":    {v},
				"period":      {monthKey(ym[0], ym[1])},
				"size":        {strconv.FormatInt(climate.LogicalSizeBytes(v), 10)},
			}
			if err := c.dir.Add(lfDN(ds.Name, name), fa); err != nil {
				return err
			}
		}
	}
	return nil
}

// Datasets lists registered datasets.
func (c *Catalog) Datasets() ([]Dataset, error) {
	es, err := c.dir.Search(Base, ldapd.ScopeOne, "(objectclass=dataset)")
	if err != nil {
		return nil, err
	}
	out := make([]Dataset, len(es))
	for i, e := range es {
		out[i] = decodeDataset(e)
	}
	return out, nil
}

// Lookup returns one dataset by name.
func (c *Catalog) Lookup(name string) (Dataset, error) {
	es, err := c.dir.Search(dsDN(name), ldapd.ScopeBase, "")
	if err != nil {
		if errors.Is(err, ldapd.ErrNoSuchEntry) {
			return Dataset{}, fmt.Errorf("%w: %s", ErrNoSuchDataset, name)
		}
		return Dataset{}, err
	}
	return decodeDataset(es[0]), nil
}

func decodeDataset(e *ldapd.Entry) Dataset {
	fy, fm := parseKey(e.Get("from"))
	ty, tm := parseKey(e.Get("to"))
	return Dataset{
		Name:       e.Get("ds"),
		Model:      e.Get("model"),
		Collection: e.Get("collection"),
		Comment:    e.Get("comment"),
		Variables:  e.GetAll("variable"),
		From:       time.Date(fy, time.Month(fm), 1, 0, 0, 0, 0, time.UTC),
		To:         time.Date(ty, time.Month(tm), 1, 0, 0, 0, 0, time.UTC),
	}
}

// Query is the VCDAT-style selection: a dataset, a set of variables (nil
// = all) and an inclusive month range (zero times = full range).
type Query struct {
	Dataset   string
	Variables []string
	From, To  time.Time
}

// Resolve maps a query to logical files, the hand-off to the request
// manager (§3 -> §4).
func (c *Catalog) Resolve(q Query) (collection string, files []LogicalFile, err error) {
	ds, err := c.Lookup(q.Dataset)
	if err != nil {
		return "", nil, err
	}
	filter := "(objectclass=logicalfile)"
	if len(q.Variables) == 1 {
		filter = fmt.Sprintf("(&(objectclass=logicalfile)(variable=%s))", q.Variables[0])
	}
	es, err := c.dir.Search(dsDN(q.Dataset), ldapd.ScopeOne, filter)
	if err != nil {
		return "", nil, err
	}
	wantVar := map[string]bool{}
	for _, v := range q.Variables {
		wantVar[v] = true
	}
	fromKey, toKey := "000000", "999999"
	if !q.From.IsZero() {
		fromKey = keyOf(q.From)
	}
	if !q.To.IsZero() {
		toKey = keyOf(q.To)
	}
	for _, e := range es {
		if len(wantVar) > 0 && !wantVar[e.Get("variable")] {
			continue
		}
		p := e.Get("period")
		if p < fromKey || p > toKey {
			continue
		}
		y, m := parseKey(p)
		size, _ := strconv.ParseInt(e.Get("size"), 10, 64)
		files = append(files, LogicalFile{
			Name:     e.Get("lf"),
			Variable: e.Get("variable"),
			Year:     y,
			Month:    m,
			Size:     size,
		})
	}
	if len(files) == 0 {
		return "", nil, fmt.Errorf("%w: %s %v %s..%s", ErrNoFiles, q.Dataset, q.Variables, fromKey, toKey)
	}
	return ds.Collection, files, nil
}
