package analysis

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"esgrid/internal/cdf"
	"esgrid/internal/climate"
)

func monthFile(t *testing.T) *cdf.File {
	t.Helper()
	m := climate.NewModel("pcm", climate.GridSpec{NLat: 16, NLon: 32, StepsPerMonth: 4})
	f, err := m.MonthlyFile(climate.VarTemperature, 1998, 7)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestExtractField(t *testing.T) {
	f := monthFile(t)
	fld, err := ExtractField(f, "tas", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(fld.Lats) != 16 || len(fld.Lons) != 32 || len(fld.Data) != 512 {
		t.Fatalf("field shape: %d lats, %d lons, %d data", len(fld.Lats), len(fld.Lons), len(fld.Data))
	}
	if _, err := ExtractField(f, "tas", 99); !errors.Is(err, ErrBadTime) {
		t.Fatalf("bad time err = %v", err)
	}
	if _, err := ExtractField(f, "nope", 0); err == nil {
		t.Fatal("unknown variable extracted")
	}
}

func TestFieldStatsPhysical(t *testing.T) {
	f := monthFile(t)
	fld, _ := ExtractField(f, "tas", 0)
	st := fld.Stats()
	if st.Min < 200 || st.Max > 320 {
		t.Fatalf("temperature range [%f, %f] implausible", st.Min, st.Max)
	}
	if st.Mean <= st.Min || st.Mean >= st.Max {
		t.Fatal("mean outside range")
	}
	// Area weighting emphasizes the (warm) tropics: weighted mean above
	// the plain mean for a poleward-cooling field.
	if st.AreaMean <= st.Mean {
		t.Fatalf("area-weighted mean %.2f should exceed plain mean %.2f", st.AreaMean, st.Mean)
	}
}

func TestSubsetTropics(t *testing.T) {
	f := monthFile(t)
	fld, _ := ExtractField(f, "tas", 0)
	trop, err := fld.Subset(-20, 20, 0, 360)
	if err != nil {
		t.Fatal(err)
	}
	for _, la := range trop.Lats {
		if la < -20 || la > 20 {
			t.Fatalf("subset contains lat %v", la)
		}
	}
	if trop.Stats().Mean <= fld.Stats().Mean {
		t.Fatal("tropical subset not warmer than globe")
	}
	if _, err := fld.Subset(95, 99, 0, 10); !errors.Is(err, ErrEmptyField) {
		t.Fatalf("empty subset err = %v", err)
	}
}

func TestZonalMeanShape(t *testing.T) {
	f := monthFile(t)
	fld, _ := ExtractField(f, "tas", 0)
	zm := fld.ZonalMean()
	if len(zm) != len(fld.Lats) {
		t.Fatalf("zonal mean length %d", len(zm))
	}
	// Warmest zonal band should be tropical.
	best := 0
	for i := range zm {
		if zm[i] > zm[best] {
			best = i
		}
	}
	if la := fld.Lats[best]; la < -30 || la > 30 {
		t.Fatalf("warmest band at lat %v", la)
	}
}

func TestRenderASCII(t *testing.T) {
	f := monthFile(t)
	fld, _ := ExtractField(f, "tas", 0)
	out := fld.RenderASCII(64)
	if !strings.Contains(out, "tas") || !strings.Contains(out, "min=") {
		t.Fatalf("render header missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// header + 16 lat rows + 2 axis rows
	if len(lines) != 19 {
		t.Fatalf("render has %d lines:\n%s", len(lines), out)
	}
	// North on top.
	if !strings.Contains(lines[1], "84.4") && !strings.Contains(lines[1], "84.") {
		t.Fatalf("first row not northernmost: %q", lines[1])
	}
}

func TestPGMWellFormed(t *testing.T) {
	f := monthFile(t)
	fld, _ := ExtractField(f, "tas", 0)
	img := fld.PGM()
	if !bytes.HasPrefix(img, []byte("P5\n32 16\n255\n")) {
		t.Fatalf("pgm header: %q", img[:20])
	}
	if len(img) != len("P5\n32 16\n255\n")+16*32 {
		t.Fatalf("pgm length %d", len(img))
	}
}
