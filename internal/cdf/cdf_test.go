package cdf

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func buildTestFile(t *testing.T) *File {
	t.Helper()
	f := New()
	f.Attrs["model"] = "pcm"
	if err := f.AddDim("time", 4); err != nil {
		t.Fatal(err)
	}
	if err := f.AddDim("lat", 3); err != nil {
		t.Fatal(err)
	}
	if err := f.AddDim("lon", 5); err != nil {
		t.Fatal(err)
	}
	data := make([]float64, 4*3*5)
	for i := range data {
		data[i] = float64(i)
	}
	if err := f.AddVar("tas", Float64, []string{"time", "lat", "lon"},
		map[string]string{"units": "K"}, data); err != nil {
		t.Fatal(err)
	}
	lat := []float64{-45, 0, 45}
	if err := f.AddVar("lat", Float32, []string{"lat"}, nil, lat); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestAddVarShapeChecks(t *testing.T) {
	f := New()
	f.AddDim("x", 3)
	if err := f.AddVar("v", Float64, []string{"x"}, nil, []float64{1, 2}); !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v, want ErrShape", err)
	}
	if err := f.AddVar("v", Float64, []string{"y"}, nil, nil); !errors.Is(err, ErrNoSuchDim) {
		t.Fatalf("err = %v, want ErrNoSuchDim", err)
	}
	f.AddVar("v", Float64, []string{"x"}, nil, []float64{1, 2, 3})
	if err := f.AddVar("v", Float64, []string{"x"}, nil, []float64{1, 2, 3}); !errors.Is(err, ErrDupeName) {
		t.Fatalf("err = %v, want ErrDupeName", err)
	}
}

func TestReadSlabFull(t *testing.T) {
	f := buildTestFile(t)
	got, err := f.ReadSlab("tas", []int{0, 0, 0}, []int{4, 3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 60 || got[0] != 0 || got[59] != 59 {
		t.Fatalf("full slab wrong: len=%d first=%v last=%v", len(got), got[0], got[59])
	}
}

func TestReadSlabInterior(t *testing.T) {
	f := buildTestFile(t)
	// time=2, lat=1..2, lon=1..3  -> offsets 2*15 + lat*5 + lon
	got, err := f.ReadSlab("tas", []int{2, 1, 1}, []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{36, 37, 38, 41, 42, 43}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slab[%d] = %v, want %v (full %v)", i, got[i], want[i], got)
		}
	}
}

func TestReadSlabBounds(t *testing.T) {
	f := buildTestFile(t)
	cases := [][2][]int{
		{{0, 0, 0}, {5, 3, 5}},  // too long in time
		{{-1, 0, 0}, {1, 1, 1}}, // negative start
		{{0, 0, 0}, {0, 1, 1}},  // zero count
		{{3, 2, 4}, {1, 1, 2}},  // runs past lon end
		{{0, 0}, {1, 1}},        // rank mismatch
	}
	for _, c := range cases {
		if _, err := f.ReadSlab("tas", c[0], c[1]); !errors.Is(err, ErrBadSlab) {
			t.Errorf("ReadSlab(%v,%v) err = %v, want ErrBadSlab", c[0], c[1], err)
		}
	}
	if _, err := f.ReadSlab("nope", []int{0}, []int{1}); !errors.Is(err, ErrNoSuchVar) {
		t.Errorf("missing var err = %v", err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := buildTestFile(t)
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.Attrs["model"] != "pcm" {
		t.Fatal("global attr lost")
	}
	if len(g.Dims) != 3 || g.Dims[1].Name != "lat" || g.Dims[1].Len != 3 {
		t.Fatalf("dims = %v", g.Dims)
	}
	vi, err := g.VarInfo("tas")
	if err != nil {
		t.Fatal(err)
	}
	if vi.Attrs["units"] != "K" || vi.Type != Float64 {
		t.Fatalf("varinfo = %+v", vi)
	}
	a, _ := f.ReadAll("tas")
	b, _ := g.ReadAll("tas")
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("data[%d]: %v != %v", i, a[i], b[i])
		}
	}
}

func TestFloat32PrecisionPreserved(t *testing.T) {
	f := New()
	f.AddDim("x", 2)
	f.AddVar("v", Float32, []string{"x"}, nil, []float64{1.5, -2.25})
	var buf bytes.Buffer
	f.Encode(&buf)
	g, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := g.ReadAll("v")
	if got[0] != 1.5 || got[1] != -2.25 {
		t.Fatalf("float32 round trip: %v", got)
	}
}

func TestInt32Truncation(t *testing.T) {
	f := New()
	f.AddDim("x", 1)
	f.AddVar("v", Int32, []string{"x"}, nil, []float64{42})
	var buf bytes.Buffer
	f.Encode(&buf)
	g, _ := Decode(&buf)
	got, _ := g.ReadAll("v")
	if got[0] != 42 {
		t.Fatalf("int32 round trip: %v", got)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("NCDF0000"))); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
	if _, err := Decode(bytes.NewReader(Magic[:])); err == nil {
		t.Fatal("truncated file decoded")
	}
}

// quick-check: encode/decode round trip preserves arbitrary float64 data
// and any in-range hyperslab equals the same region of the full array.
func TestQuickRoundTripAndSlabs(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nt, ny, nx := 1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(4)
		f := New()
		f.AddDim("t", nt)
		f.AddDim("y", ny)
		f.AddDim("x", nx)
		data := make([]float64, nt*ny*nx)
		for i := range data {
			data[i] = rng.NormFloat64() * 100
		}
		if err := f.AddVar("v", Float64, []string{"t", "y", "x"}, nil, data); err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := f.Encode(&buf); err != nil {
			return false
		}
		g, err := Decode(&buf)
		if err != nil {
			return false
		}
		// Random slab.
		st := []int{rng.Intn(nt), rng.Intn(ny), rng.Intn(nx)}
		ct := []int{1 + rng.Intn(nt-st[0]), 1 + rng.Intn(ny-st[1]), 1 + rng.Intn(nx-st[2])}
		slab, err := g.ReadSlab("v", st, ct)
		if err != nil {
			return false
		}
		i := 0
		for a := 0; a < ct[0]; a++ {
			for b := 0; b < ct[1]; b++ {
				for c := 0; c < ct[2]; c++ {
					want := data[(st[0]+a)*ny*nx+(st[1]+b)*nx+(st[2]+c)]
					if slab[i] != want && !(math.IsNaN(slab[i]) && math.IsNaN(want)) {
						return false
					}
					i++
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTypeMetadata(t *testing.T) {
	if Float64.String() != "float64" || Type(99).String() == "" {
		t.Fatal("type strings wrong")
	}
}

func TestAddDimValidation(t *testing.T) {
	f := New()
	if err := f.AddDim("x", 0); err == nil {
		t.Fatal("zero-length dim accepted")
	}
	f.AddDim("x", 2)
	if err := f.AddDim("x", 3); !errors.Is(err, ErrDupeName) {
		t.Fatalf("dupe dim err = %v", err)
	}
}
