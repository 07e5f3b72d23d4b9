// Package subset implements ESG-II style server-side extraction and
// subsetting (§9 of the paper): a gridftp.SubsetStore over a collection
// of ESG-CDF files, so a GridFTP server can evaluate "give me tas over
// the tropics for the first four time steps" locally and ship only the
// extracted bytes — the DODS-inspired capability the paper names as the
// next step beyond whole-file transfer.
//
// Spec syntax: semicolon-separated clauses
//
//	var=tas;time=0:4;lat=-30:30;lon=0:180
//
// where time takes index bounds [lo,hi) and lat/lon take coordinate
// bounds (inclusive). Omitted clauses keep the full extent. The result
// is itself a valid ESG-CDF file containing the sliced variable and its
// coordinate variables.
package subset

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"esgrid/internal/cdf"
	"esgrid/internal/gridftp"
)

// Errors returned by spec evaluation.
var (
	ErrBadSpec = errors.New("subset: malformed spec")
	ErrEmpty   = errors.New("subset: selection is empty")
)

// Store holds encoded ESG-CDF files and serves both whole files (RETR)
// and server-side subsets (ESUB). The embedded gridftp.MemStore holds
// the bytes and implements gridftp.FileStore; Store adds
// gridftp.SubsetStore.
type Store struct {
	*gridftp.MemStore
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{gridftp.NewMemStore()} }

// PutFile encodes and stores a dataset under name.
func (s *Store) PutFile(name string, f *cdf.File) error {
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		return err
	}
	s.Put(name, buf.Bytes())
	return nil
}

// OpenSubset implements gridftp.SubsetStore.
func (s *Store) OpenSubset(name, spec string) (gridftp.Source, error) {
	data, ok := s.Get(name)
	if !ok {
		return nil, fmt.Errorf("%w: %s", gridftp.ErrNoSuchFile, name)
	}
	f, err := cdf.Decode(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	out, err := Apply(f, spec)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := out.Encode(&buf); err != nil {
		return nil, err
	}
	return gridftp.NewBytesSource(buf.Bytes()), nil
}

// Spec is a parsed subsetting request.
type Spec struct {
	Var                     string
	TimeLo, TimeHi          int // [lo, hi) indices; TimeHi 0 = to end
	LatLo, LatHi            float64
	LonLo, LonHi            float64
	hasTime, hasLat, hasLon bool
}

// ParseSpec parses the clause syntax.
func ParseSpec(spec string) (Spec, error) {
	out := Spec{}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		k, v, ok := strings.Cut(clause, "=")
		if !ok {
			return out, fmt.Errorf("%w: clause %q", ErrBadSpec, clause)
		}
		switch strings.ToLower(k) {
		case "var":
			out.Var = v
		case "time":
			lo, hi, err := parseRange(v)
			if err != nil {
				return out, err
			}
			out.TimeLo, out.TimeHi = int(lo), int(hi)
			out.hasTime = true
		case "lat":
			lo, hi, err := parseRange(v)
			if err != nil {
				return out, err
			}
			out.LatLo, out.LatHi = lo, hi
			out.hasLat = true
		case "lon":
			lo, hi, err := parseRange(v)
			if err != nil {
				return out, err
			}
			out.LonLo, out.LonHi = lo, hi
			out.hasLon = true
		default:
			return out, fmt.Errorf("%w: unknown clause %q", ErrBadSpec, k)
		}
	}
	if out.Var == "" {
		return out, fmt.Errorf("%w: missing var=", ErrBadSpec)
	}
	return out, nil
}

func parseRange(s string) (float64, float64, error) {
	lo, hi, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("%w: range %q (want lo:hi)", ErrBadSpec, s)
	}
	a, err := strconv.ParseFloat(strings.TrimSpace(lo), 64)
	if err != nil {
		return 0, 0, fmt.Errorf("%w: %q", ErrBadSpec, lo)
	}
	b, err := strconv.ParseFloat(strings.TrimSpace(hi), 64)
	if err != nil {
		return 0, 0, fmt.Errorf("%w: %q", ErrBadSpec, hi)
	}
	return a, b, nil
}

// Apply evaluates a spec string against a (time, lat, lon) dataset and
// returns a new dataset holding only the selection.
func Apply(f *cdf.File, specStr string) (*cdf.File, error) {
	spec, err := ParseSpec(specStr)
	if err != nil {
		return nil, err
	}
	shape, err := f.Shape(spec.Var)
	if err != nil {
		return nil, err
	}
	if len(shape) != 3 {
		return nil, fmt.Errorf("subset: variable %q is not (time, lat, lon)", spec.Var)
	}
	lats, err := f.ReadAll("lat")
	if err != nil {
		return nil, err
	}
	lons, err := f.ReadAll("lon")
	if err != nil {
		return nil, err
	}
	times, err := f.ReadAll("time")
	if err != nil {
		return nil, err
	}
	tLo, tHi := 0, shape[0]
	if spec.hasTime {
		tLo, tHi = spec.TimeLo, spec.TimeHi
		if tLo < 0 || tHi > shape[0] || tLo >= tHi {
			return nil, fmt.Errorf("%w: time %d:%d of %d", ErrEmpty, tLo, tHi, shape[0])
		}
	}
	latIdx := coordRange(lats, spec.hasLat, spec.LatLo, spec.LatHi)
	lonIdx := coordRange(lons, spec.hasLon, spec.LonLo, spec.LonHi)
	if len(latIdx) == 0 || len(lonIdx) == 0 {
		return nil, ErrEmpty
	}
	// Indices are contiguous for monotone coordinates; slice bounds.
	la0, laN := latIdx[0], len(latIdx)
	lo0, loN := lonIdx[0], len(lonIdx)

	slab, err := f.ReadSlab(spec.Var, []int{tLo, la0, lo0}, []int{tHi - tLo, laN, loN})
	if err != nil {
		return nil, err
	}
	vi, err := f.VarInfo(spec.Var)
	if err != nil {
		return nil, err
	}

	out := cdf.New()
	for k, v := range f.Attrs {
		out.Attrs[k] = v
	}
	out.Attrs["subset"] = specStr
	if err := out.AddDim("time", tHi-tLo); err != nil {
		return nil, err
	}
	if err := out.AddDim("lat", laN); err != nil {
		return nil, err
	}
	if err := out.AddDim("lon", loN); err != nil {
		return nil, err
	}
	if err := out.AddVar("time", cdf.Float64, []string{"time"}, nil, times[tLo:tHi]); err != nil {
		return nil, err
	}
	if err := out.AddVar("lat", cdf.Float64, []string{"lat"}, nil, lats[la0:la0+laN]); err != nil {
		return nil, err
	}
	if err := out.AddVar("lon", cdf.Float64, []string{"lon"}, nil, lons[lo0:lo0+loN]); err != nil {
		return nil, err
	}
	if err := out.AddVar(spec.Var, vi.Type, []string{"time", "lat", "lon"}, vi.Attrs, slab); err != nil {
		return nil, err
	}
	return out, nil
}

// coordRange returns the contiguous index run of coords within [lo, hi]
// (all indices when has is false).
func coordRange(coords []float64, has bool, lo, hi float64) []int {
	var idx []int
	for i, c := range coords {
		if !has || (c >= lo && c <= hi) {
			idx = append(idx, i)
		}
	}
	// Verify contiguity (monotone coordinates yield contiguous runs).
	for j := 1; j < len(idx); j++ {
		if idx[j] != idx[j-1]+1 {
			return idx[:j]
		}
	}
	return idx
}
