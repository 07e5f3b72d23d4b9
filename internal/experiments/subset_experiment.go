package experiments

import (
	"fmt"
	"time"

	"esgrid/internal/climate"
	"esgrid/internal/gridftp"
	"esgrid/internal/simnet"
	"esgrid/internal/subset"
)

// SubsetResult compares moving a whole variable-month against asking the
// server to extract a region first (S10: the ESG-II / DODS-style
// server-side subsetting of §9).
type SubsetResult struct {
	FullBytes    int64
	SubsetBytes  int64
	FullElapsed  time.Duration
	SubElapsed   time.Duration
	BytesSaved   float64 // fraction
	SpeedupTotal float64
}

// RunSubset performs both fetches of a tropical-Pacific temperature
// selection over a 45 Mb/s WAN path.
func RunSubset(seed int64) (SubsetResult, error) {
	g := newRig(seed)
	n := g.Net
	n.AddHost("ncar", simnet.HostConfig{DefaultBufferBytes: 1 << 20})
	n.AddHost("desk", simnet.HostConfig{DefaultBufferBytes: 1 << 20})
	n.AddLink("ncar", "desk", simnet.LinkConfig{CapacityBps: 45e6, Delay: 20 * time.Millisecond})

	// A real (coarse-grid) monthly file so the server can actually slice it.
	model := climate.NewModel("pcm", climate.GridSpec{NLat: 64, NLon: 128, StepsPerMonth: 16})
	f, err := model.MonthlyFile(climate.VarTemperature, 1998, 7)
	if err != nil {
		return SubsetResult{}, err
	}
	store := subset.NewStore()
	const name = "pcm.tas.1998-07.nc"
	if err := store.PutFile(name, f); err != nil {
		return SubsetResult{}, err
	}

	const spec = "var=tas;time=0:4;lat=-20:20;lon=120:280" // tropical Pacific
	var res SubsetResult
	err = g.Run(func() {
		if !g.Serve("ncar", gridftp.Config{Store: store}) {
			return
		}
		cli, err := g.Dial("desk", "ncar:2811", gridftp.ClientConfig{Parallelism: 2, BufferBytes: 1 << 20})
		if g.Fail(err) {
			return
		}
		defer cli.Close()

		full, err := cli.Size(name)
		if g.Fail(err) {
			return
		}
		stFull, err := cli.Get(name, gridftp.NewBytesSink(full))
		if g.Fail(err) {
			return
		}
		subSize, err := cli.SubsetSize(name, spec)
		if g.Fail(err) {
			return
		}
		stSub, err := cli.GetSubset(name, spec, gridftp.NewBytesSink(subSize))
		if g.Fail(err) {
			return
		}
		res = SubsetResult{
			FullBytes:   full,
			SubsetBytes: subSize,
			FullElapsed: stFull.Duration,
			SubElapsed:  stSub.Duration,
		}
		res.BytesSaved = 1 - float64(subSize)/float64(full)
		res.SpeedupTotal = stFull.Duration.Seconds() / stSub.Duration.Seconds()
	})
	return res, err
}

// Rows formats the comparison.
func (r SubsetResult) Rows() []Row {
	return []Row{
		{"whole-file transfer", fmt.Sprintf("%.2f MB in %v", float64(r.FullBytes)/1e6, r.FullElapsed.Round(time.Millisecond))},
		{"server-side subset (ESUB)", fmt.Sprintf("%.2f MB in %v", float64(r.SubsetBytes)/1e6, r.SubElapsed.Round(time.Millisecond))},
		{"bytes saved", fmt.Sprintf("%.1f%%", 100*r.BytesSaved)},
		{"time-to-science speedup", fmt.Sprintf("%.1fx", r.SpeedupTotal)},
	}
}
