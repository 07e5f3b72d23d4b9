// Package cdf implements ESG's self-describing binary array format — the
// stand-in for netCDF, the format the paper's climate datasets use (§3:
// "thousands of individual data files stored in a self-describing binary
// format such as netCDF"). A file carries named dimensions, typed
// multidimensional variables with attributes, and global attributes, and
// supports hyperslab (rectangular subregion) reads without loading the
// whole variable, which is what the analysis layer needs for
// region/time-window extraction.
package cdf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Magic identifies an ESG-CDF file.
var Magic = [4]byte{'E', 'S', 'G', 'C'}

// Type is a variable element type.
type Type uint8

// Supported element types.
const (
	Float64 Type = iota + 1
	Float32
	Int32
)

func (t Type) String() string {
	switch t {
	case Float64:
		return "float64"
	case Float32:
		return "float32"
	case Int32:
		return "int32"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Dim is a named dimension.
type Dim struct {
	Name string
	Len  int
}

// Var is a variable: a typed array over an ordered list of dimensions
// (row-major, last dimension fastest).
type Var struct {
	Name  string
	Type  Type
	Dims  []string
	Attrs map[string]string

	data []float64 // stored canonically as float64 in memory
}

// Errors returned by the package.
var (
	ErrBadMagic   = errors.New("cdf: not an ESG-CDF file")
	ErrNoSuchVar  = errors.New("cdf: no such variable")
	ErrNoSuchDim  = errors.New("cdf: no such dimension")
	ErrBadSlab    = errors.New("cdf: hyperslab out of range")
	ErrShape      = errors.New("cdf: data length does not match shape")
	ErrDupeName   = errors.New("cdf: duplicate name")
	errMalformed  = errors.New("cdf: malformed file")
	errDimUnknown = errors.New("cdf: variable references unknown dimension")
)

// File is an in-memory dataset, buildable and serializable.
type File struct {
	Dims   []Dim
	Attrs  map[string]string
	varsBy map[string]*Var
	vars   []*Var
}

// New returns an empty dataset.
func New() *File {
	return &File{Attrs: map[string]string{}, varsBy: map[string]*Var{}}
}

// AddDim defines a dimension.
func (f *File) AddDim(name string, n int) error {
	if n <= 0 {
		return fmt.Errorf("cdf: dimension %q has non-positive length %d", name, n)
	}
	if _, ok := f.dim(name); ok {
		return fmt.Errorf("%w: dimension %q", ErrDupeName, name)
	}
	f.Dims = append(f.Dims, Dim{name, n})
	return nil
}

func (f *File) dim(name string) (Dim, bool) {
	for _, d := range f.Dims {
		if d.Name == name {
			return d, true
		}
	}
	return Dim{}, false
}

// Shape returns the dimension lengths of a variable.
func (f *File) Shape(varName string) ([]int, error) {
	v, ok := f.varsBy[varName]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchVar, varName)
	}
	shape := make([]int, len(v.Dims))
	for i, dn := range v.Dims {
		d, ok := f.dim(dn)
		if !ok {
			return nil, fmt.Errorf("%w: %q", errDimUnknown, dn)
		}
		shape[i] = d.Len
	}
	return shape, nil
}

// AddVar defines a variable and stores its data (row-major, len must
// equal the product of its dimension lengths).
func (f *File) AddVar(name string, typ Type, dims []string, attrs map[string]string, data []float64) error {
	if _, dup := f.varsBy[name]; dup {
		return fmt.Errorf("%w: variable %q", ErrDupeName, name)
	}
	n := 1
	for _, dn := range dims {
		d, ok := f.dim(dn)
		if !ok {
			return fmt.Errorf("%w: %q", ErrNoSuchDim, dn)
		}
		n *= d.Len
	}
	if len(data) != n {
		return fmt.Errorf("%w: var %q needs %d values, got %d", ErrShape, name, n, len(data))
	}
	if attrs == nil {
		attrs = map[string]string{}
	}
	v := &Var{Name: name, Type: typ, Dims: append([]string(nil), dims...), Attrs: attrs, data: data}
	f.vars = append(f.vars, v)
	f.varsBy[name] = v
	return nil
}

// VarInfo returns the variable's metadata.
func (f *File) VarInfo(name string) (Var, error) {
	v, ok := f.varsBy[name]
	if !ok {
		return Var{}, fmt.Errorf("%w: %q", ErrNoSuchVar, name)
	}
	return Var{Name: v.Name, Type: v.Type, Dims: append([]string(nil), v.Dims...), Attrs: v.Attrs}, nil
}

// ReadAll returns a copy of the variable's full data.
func (f *File) ReadAll(name string) ([]float64, error) {
	v, ok := f.varsBy[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchVar, name)
	}
	return append([]float64(nil), v.data...), nil
}

// ReadSlab extracts the hyperslab [start[i], start[i]+count[i]) over each
// dimension, returned row-major.
func (f *File) ReadSlab(name string, start, count []int) ([]float64, error) {
	v, ok := f.varsBy[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchVar, name)
	}
	shape, err := f.Shape(name)
	if err != nil {
		return nil, err
	}
	if len(start) != len(shape) || len(count) != len(shape) {
		return nil, fmt.Errorf("%w: rank mismatch", ErrBadSlab)
	}
	total := 1
	for i := range shape {
		if start[i] < 0 || count[i] <= 0 || start[i]+count[i] > shape[i] {
			return nil, fmt.Errorf("%w: dim %d: [%d,%d) of %d", ErrBadSlab, i, start[i], start[i]+count[i], shape[i])
		}
		total *= count[i]
	}
	// Row-major strides.
	strides := make([]int, len(shape))
	s := 1
	for i := len(shape) - 1; i >= 0; i-- {
		strides[i] = s
		s *= shape[i]
	}
	out := make([]float64, 0, total)
	idx := make([]int, len(shape))
	for {
		off := 0
		for i := range idx {
			off += (start[i] + idx[i]) * strides[i]
		}
		// Copy the innermost contiguous run at once.
		last := len(shape) - 1
		run := count[last]
		out = append(out, v.data[off:off+run]...)
		// Advance the multi-index, skipping the innermost dimension.
		i := last - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < count[i] {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			break
		}
	}
	return out, nil
}

// --- serialization ---

// Encode writes the dataset in the ESG-CDF binary layout.
func (f *File) Encode(w io.Writer) error {
	bw := &countingWriter{w: w}
	write := func(v any) error { return binary.Write(bw, binary.BigEndian, v) }
	if _, err := bw.Write(Magic[:]); err != nil {
		return err
	}
	if err := write(uint32(len(f.Dims))); err != nil {
		return err
	}
	for _, d := range f.Dims {
		if err := writeString(bw, d.Name); err != nil {
			return err
		}
		if err := write(uint64(d.Len)); err != nil {
			return err
		}
	}
	if err := writeAttrs(bw, f.Attrs); err != nil {
		return err
	}
	if err := write(uint32(len(f.vars))); err != nil {
		return err
	}
	for _, v := range f.vars {
		if err := writeString(bw, v.Name); err != nil {
			return err
		}
		if err := write(uint8(v.Type)); err != nil {
			return err
		}
		if err := write(uint32(len(v.Dims))); err != nil {
			return err
		}
		for _, dn := range v.Dims {
			if err := writeString(bw, dn); err != nil {
				return err
			}
		}
		if err := writeAttrs(bw, v.Attrs); err != nil {
			return err
		}
		if err := write(uint64(len(v.data))); err != nil {
			return err
		}
		for _, x := range v.data {
			var err error
			switch v.Type {
			case Float64:
				err = write(math.Float64bits(x))
			case Float32:
				err = write(math.Float32bits(float32(x)))
			case Int32:
				err = write(int32(x))
			default:
				err = fmt.Errorf("cdf: unknown type %v", v.Type)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// Decode parses a dataset from r.
func Decode(r io.Reader) (*File, error) {
	br := r
	read := func(v any) error { return binary.Read(br, binary.BigEndian, v) }
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, err
	}
	if magic != Magic {
		return nil, ErrBadMagic
	}
	f := New()
	var ndims uint32
	if err := read(&ndims); err != nil {
		return nil, err
	}
	if ndims > 1<<16 {
		return nil, errMalformed
	}
	for i := uint32(0); i < ndims; i++ {
		name, err := readString(br)
		if err != nil {
			return nil, err
		}
		var n uint64
		if err := read(&n); err != nil {
			return nil, err
		}
		if err := f.AddDim(name, int(n)); err != nil {
			return nil, err
		}
	}
	attrs, err := readAttrs(br)
	if err != nil {
		return nil, err
	}
	f.Attrs = attrs
	var nvars uint32
	if err := read(&nvars); err != nil {
		return nil, err
	}
	if nvars > 1<<20 {
		return nil, errMalformed
	}
	for i := uint32(0); i < nvars; i++ {
		name, err := readString(br)
		if err != nil {
			return nil, err
		}
		var typ uint8
		if err := read(&typ); err != nil {
			return nil, err
		}
		var nd uint32
		if err := read(&nd); err != nil {
			return nil, err
		}
		if nd > 64 {
			return nil, errMalformed
		}
		dims := make([]string, nd)
		for j := range dims {
			if dims[j], err = readString(br); err != nil {
				return nil, err
			}
		}
		vattrs, err := readAttrs(br)
		if err != nil {
			return nil, err
		}
		var count uint64
		if err := read(&count); err != nil {
			return nil, err
		}
		if count > 1<<32 {
			return nil, errMalformed
		}
		data := make([]float64, count)
		switch Type(typ) {
		case Float64:
			for j := range data {
				var b uint64
				if err := read(&b); err != nil {
					return nil, err
				}
				data[j] = math.Float64frombits(b)
			}
		case Float32:
			for j := range data {
				var b uint32
				if err := read(&b); err != nil {
					return nil, err
				}
				data[j] = float64(math.Float32frombits(b))
			}
		case Int32:
			for j := range data {
				var b int32
				if err := read(&b); err != nil {
					return nil, err
				}
				data[j] = float64(b)
			}
		default:
			return nil, fmt.Errorf("%w: type %d", errMalformed, typ)
		}
		if err := f.AddVar(name, Type(typ), dims, vattrs, data); err != nil {
			return nil, err
		}
	}
	return f, nil
}

func writeString(w io.Writer, s string) error {
	if err := binary.Write(w, binary.BigEndian, uint16(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r io.Reader) (string, error) {
	var n uint16
	if err := binary.Read(r, binary.BigEndian, &n); err != nil {
		return "", err
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}

func writeAttrs(w io.Writer, attrs map[string]string) error {
	if err := binary.Write(w, binary.BigEndian, uint32(len(attrs))); err != nil {
		return err
	}
	// Deterministic order.
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sortStrings(keys)
	for _, k := range keys {
		if err := writeString(w, k); err != nil {
			return err
		}
		if err := writeString(w, attrs[k]); err != nil {
			return err
		}
	}
	return nil
}

func readAttrs(r io.Reader) (map[string]string, error) {
	var n uint32
	if err := binary.Read(r, binary.BigEndian, &n); err != nil {
		return nil, err
	}
	if n > 1<<20 {
		return nil, errMalformed
	}
	out := make(map[string]string, n)
	for i := uint32(0); i < n; i++ {
		k, err := readString(r)
		if err != nil {
			return nil, err
		}
		v, err := readString(r)
		if err != nil {
			return nil, err
		}
		out[k] = v
	}
	return out, nil
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}
