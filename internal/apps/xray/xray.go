// Package xray is a proxy for a synchrotron / XFEL detector-frame
// workload — the bursty interactive X-ray-science scenario that defeats
// static staging-pool sizing. Unlike GTC and Pixie3D, whose dumps have
// a steady cadence and near-constant size, a detector alternates
// between quiet calibration stretches and acquisition bursts: dump
// sizes jump by one to two orders of magnitude (10–100×) from one dump
// to the next and stay high for several consecutive dumps before
// collapsing again.
//
// The burst schedule is derived from the seed alone — not the rank —
// so every rank agrees on which dumps burst and by how much, the same
// shared-derivation idiom the fault plan and the elastic schedule use.
// Per-rank frame content is seeded independently so ranks still produce
// distinct data.
package xray

import (
	"fmt"
	"math"
	"math/rand"

	"predata/internal/ffs"
)

// Frame attribute columns: one row per detected event/frame summary.
const (
	AttrFrameID   = iota // frame sequence number within the dump
	AttrEnergy           // photon energy (keV)
	AttrX                // detector x position (pixels)
	AttrY                // detector y position (pixels)
	AttrIntensity        // integrated intensity (ADU)
	AttrCount
)

// The seeded burst process: dump sizes during a burst are BaseFrames ×
// factor with factor in [burstMin, burstMax] — the 10–100× dump-to-dump
// variance of detector acquisition — and each burst stretch lasts
// 1..burstLen dumps, each quiet stretch 1..quietLen.
const (
	burstMin, burstMax = 10.0, 100.0
	burstLen, quietLen = 4, 3
)

// Config sizes the proxy.
type Config struct {
	// Rank and NumRanks place this process in the compute job.
	Rank, NumRanks int
	// BaseFrames is the per-rank frame count of a quiet dump. Default 8.
	BaseFrames int
	// Steps is the horizon of the precomputed burst schedule — the
	// number of dumps the run will perform.
	Steps int
	// Seed controls both the shared burst schedule and (combined with
	// the rank) per-rank frame content.
	Seed int64
	// Schedule, when non-nil, overrides the seeded burst process with an
	// explicit per-dump size factor (1.0 = quiet). Its length must be
	// >= Steps. Benchmarks use it to craft exact burst placements.
	Schedule []float64
}

func (c Config) withDefaults() Config {
	if c.BaseFrames <= 0 {
		c.BaseFrames = 8
	}
	return c
}

// Detector is one rank's view of the acquisition. All ranks holding
// configs that differ only in Rank share an identical burst schedule.
type Detector struct {
	cfg     Config
	factors []float64 // per-dump size multiplier, shared across ranks
	rng     *rand.Rand
}

// New validates the configuration and derives the burst schedule.
func New(cfg Config) (*Detector, error) {
	if cfg.NumRanks < 1 || cfg.Rank < 0 || cfg.Rank >= cfg.NumRanks {
		return nil, fmt.Errorf("xray: rank %d outside job of %d", cfg.Rank, cfg.NumRanks)
	}
	if cfg.Steps < 0 {
		return nil, fmt.Errorf("xray: negative step count %d", cfg.Steps)
	}
	cfg = cfg.withDefaults()
	d := &Detector{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed + int64(cfg.Rank)*7919 + 13)),
	}
	if cfg.Schedule != nil {
		if len(cfg.Schedule) < cfg.Steps {
			return nil, fmt.Errorf("xray: schedule covers %d dumps, run needs %d", len(cfg.Schedule), cfg.Steps)
		}
		for i, f := range cfg.Schedule[:cfg.Steps] {
			if f < 1 {
				return nil, fmt.Errorf("xray: schedule factor %g at dump %d (want >= 1)", f, i)
			}
		}
		d.factors = append([]float64(nil), cfg.Schedule[:cfg.Steps]...)
		return d, nil
	}
	// Seeded two-state burst process, derived from the seed alone so
	// every rank computes the identical schedule: quiet stretches of
	// 1..quietLen dumps at factor 1, burst stretches of 1..burstLen
	// dumps at a factor drawn once per burst from [burstMin, burstMax].
	shared := rand.New(rand.NewSource(cfg.Seed*2654435761 + 97))
	d.factors = make([]float64, cfg.Steps)
	for i := 0; i < cfg.Steps; {
		quiet := 1 + shared.Intn(quietLen)
		for j := 0; j < quiet && i < cfg.Steps; j++ {
			d.factors[i] = 1
			i++
		}
		if i >= cfg.Steps {
			break
		}
		factor := burstMin + shared.Float64()*(burstMax-burstMin)
		burst := 1 + shared.Intn(burstLen)
		for j := 0; j < burst && i < cfg.Steps; j++ {
			d.factors[i] = factor
			i++
		}
	}
	return d, nil
}

// BurstFactor returns the shared size multiplier of a dump.
func (d *Detector) BurstFactor(step int64) float64 {
	if step < 0 || step >= int64(len(d.factors)) {
		return 1
	}
	return d.factors[step]
}

// FrameCount returns this rank's frame count for a dump: the quiet
// baseline scaled by the dump's shared burst factor.
func (d *Detector) FrameCount(step int64) int {
	return int(math.Round(float64(d.cfg.BaseFrames) * d.BurstFactor(step)))
}

// Frames synthesizes the dump's frame array as [N, AttrCount] float64:
// frame ids, a two-line emission spectrum, detector positions, and
// intensities. Content is per-rank random; shape follows the shared
// schedule.
func (d *Detector) Frames(step int64) *ffs.Array {
	n := d.FrameCount(step)
	data := make([]float64, n*AttrCount)
	for i := 0; i < n; i++ {
		row := data[i*AttrCount:]
		row[AttrFrameID] = float64(i)
		// Emission spectrum: two Gaussian lines over background.
		switch d.rng.Intn(3) {
		case 0:
			row[AttrEnergy] = 8.0 + 0.1*d.rng.NormFloat64() // Cu K-alpha-ish
		case 1:
			row[AttrEnergy] = 8.9 + 0.1*d.rng.NormFloat64() // Cu K-beta-ish
		default:
			row[AttrEnergy] = 5 + 10*d.rng.Float64() // background
		}
		row[AttrX] = float64(d.rng.Intn(2048))
		row[AttrY] = float64(d.rng.Intn(2048))
		row[AttrIntensity] = math.Abs(d.rng.NormFloat64()) * 1000
	}
	return &ffs.Array{Dims: []uint64{uint64(n), AttrCount}, Float64: data}
}

// Steps returns the schedule horizon.
func (d *Detector) Steps() int { return d.cfg.Steps }

// TotalFrames returns this rank's frame count summed over the whole
// schedule — the conservation figure loss checks compare against.
func (d *Detector) TotalFrames() int64 {
	var n int64
	for s := 0; s < d.cfg.Steps; s++ {
		n += int64(d.FrameCount(int64(s)))
	}
	return n
}

// Schema is the ADIOS output group of the detector proxy.
func Schema() *ffs.Schema {
	return &ffs.Schema{
		Name: "xray_frames",
		Fields: []ffs.Field{
			{Name: "frames", Kind: ffs.KindArray},
		},
	}
}
