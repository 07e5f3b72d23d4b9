// Package analysis is the headless CDAT/VCDAT analog (§3): once the
// request manager has delivered the data files, it extracts variables,
// subsets them by region and time, computes the usual climate statistics,
// and renders fields as ASCII shade maps or PGM images — the stand-in for
// the Figure 3 visualization.
package analysis

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"esgrid/internal/cdf"
)

// Errors returned by the package.
var (
	ErrNoCoord    = errors.New("analysis: file lacks lat/lon coordinate variables")
	ErrBadTime    = errors.New("analysis: time index out of range")
	ErrEmptyField = errors.New("analysis: empty field")
)

// Field is a 2D (lat x lon) slice of a variable at one time step.
type Field struct {
	Name string
	Lats []float64
	Lons []float64
	Data []float64 // row-major, len = len(Lats)*len(Lons)
}

// At returns the value at lat index i, lon index j.
func (f *Field) At(i, j int) float64 { return f.Data[i*len(f.Lons)+j] }

// ExtractField pulls one time step of a (time, lat, lon) variable.
func ExtractField(file *cdf.File, varName string, timeIndex int) (*Field, error) {
	lats, err := file.ReadAll("lat")
	if err != nil {
		return nil, ErrNoCoord
	}
	lons, err := file.ReadAll("lon")
	if err != nil {
		return nil, ErrNoCoord
	}
	shape, err := file.Shape(varName)
	if err != nil {
		return nil, err
	}
	if len(shape) != 3 {
		return nil, fmt.Errorf("analysis: variable %q is not (time, lat, lon)", varName)
	}
	if timeIndex < 0 || timeIndex >= shape[0] {
		return nil, fmt.Errorf("%w: %d of %d", ErrBadTime, timeIndex, shape[0])
	}
	data, err := file.ReadSlab(varName, []int{timeIndex, 0, 0}, []int{1, shape[1], shape[2]})
	if err != nil {
		return nil, err
	}
	return &Field{Name: varName, Lats: lats, Lons: lons, Data: data}, nil
}

// Subset restricts the field to a lat/lon box (inclusive bounds,
// longitudes in [0, 360)).
func (f *Field) Subset(latMin, latMax, lonMin, lonMax float64) (*Field, error) {
	var li []int
	for i, la := range f.Lats {
		if la >= latMin && la <= latMax {
			li = append(li, i)
		}
	}
	var lj []int
	for j, lo := range f.Lons {
		if lo >= lonMin && lo <= lonMax {
			lj = append(lj, j)
		}
	}
	if len(li) == 0 || len(lj) == 0 {
		return nil, ErrEmptyField
	}
	out := &Field{
		Name: f.Name,
		Lats: make([]float64, len(li)),
		Lons: make([]float64, len(lj)),
		Data: make([]float64, len(li)*len(lj)),
	}
	for a, i := range li {
		out.Lats[a] = f.Lats[i]
		for b, j := range lj {
			out.Lons[b] = f.Lons[j]
			out.Data[a*len(lj)+b] = f.At(i, j)
		}
	}
	return out, nil
}

// Stats summarizes the field.
type Stats struct {
	Min, Max, Mean, AreaMean float64
}

// Stats computes plain and area-weighted (cos latitude) statistics.
func (f *Field) Stats() Stats {
	if len(f.Data) == 0 {
		return Stats{}
	}
	st := Stats{Min: math.Inf(1), Max: math.Inf(-1)}
	var sum, wsum, wtot float64
	for i, la := range f.Lats {
		w := math.Cos(la * math.Pi / 180)
		if w < 0 {
			w = 0
		}
		for j := range f.Lons {
			v := f.At(i, j)
			sum += v
			wsum += w * v
			wtot += w
			if v < st.Min {
				st.Min = v
			}
			if v > st.Max {
				st.Max = v
			}
		}
	}
	st.Mean = sum / float64(len(f.Data))
	if wtot > 0 {
		st.AreaMean = wsum / wtot
	}
	return st
}

// ZonalMean returns the mean over longitude at each latitude.
func (f *Field) ZonalMean() []float64 {
	out := make([]float64, len(f.Lats))
	for i := range f.Lats {
		var s float64
		for j := range f.Lons {
			s += f.At(i, j)
		}
		out[i] = s / float64(len(f.Lons))
	}
	return out
}

// shades orders characters by increasing intensity.
const shades = " .:-=+*#%@"

// RenderASCII draws the field as a shade map with latitude labels — the
// headless Figure 3.
func (f *Field) RenderASCII(width int) string {
	if len(f.Data) == 0 {
		return "(empty field)\n"
	}
	if width <= 0 || width > len(f.Lons) {
		width = len(f.Lons)
	}
	st := f.Stats()
	span := st.Max - st.Min
	if span == 0 {
		span = 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  min=%.2f max=%.2f mean=%.2f\n", f.Name, st.Min, st.Max, st.Mean)
	// Latitudes render north to south.
	for i := len(f.Lats) - 1; i >= 0; i-- {
		fmt.Fprintf(&b, "%6.1f |", f.Lats[i])
		for c := 0; c < width; c++ {
			j := c * len(f.Lons) / width
			v := (f.At(i, j) - st.Min) / span
			idx := int(v * float64(len(shades)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(shades) {
				idx = len(shades) - 1
			}
			b.WriteByte(shades[idx])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%7s+%s\n", "", strings.Repeat("-", width))
	fmt.Fprintf(&b, "%7s 0%sE360\n", "", strings.Repeat(" ", width-6))
	return b.String()
}

// PGM encodes the field as a binary PGM (P5) grayscale image, north up.
func (f *Field) PGM() []byte {
	ny, nx := len(f.Lats), len(f.Lons)
	st := f.Stats()
	span := st.Max - st.Min
	if span == 0 {
		span = 1
	}
	hdr := fmt.Sprintf("P5\n%d %d\n255\n", nx, ny)
	out := make([]byte, 0, len(hdr)+nx*ny)
	out = append(out, hdr...)
	for i := ny - 1; i >= 0; i-- {
		for j := 0; j < nx; j++ {
			v := (f.At(i, j) - st.Min) / span
			out = append(out, byte(v*255))
		}
	}
	return out
}
