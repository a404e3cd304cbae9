package xray

import (
	"math"
	"testing"
)

func TestScheduleSharedAcrossRanks(t *testing.T) {
	mk := func(rank int) *Detector {
		d, err := New(Config{Rank: rank, NumRanks: 4, Steps: 40, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a, b := mk(0), mk(3)
	for s := int64(0); s < 40; s++ {
		if a.BurstFactor(s) != b.BurstFactor(s) {
			t.Fatalf("dump %d: rank 0 factor %g, rank 3 factor %g",
				s, a.BurstFactor(s), b.BurstFactor(s))
		}
		if a.FrameCount(s) != b.FrameCount(s) {
			t.Fatalf("dump %d: frame counts diverged", s)
		}
	}
}

func TestScheduleHasBurstVariance(t *testing.T) {
	d, err := New(Config{NumRanks: 1, Steps: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	quiet, burst := 0, 0
	for s := int64(0); s < 60; s++ {
		f := d.BurstFactor(s)
		switch {
		case f == 1:
			quiet++
		case f >= 10 && f <= 100:
			burst++
		default:
			t.Fatalf("dump %d: factor %g outside {1} ∪ [10, 100]", s, f)
		}
	}
	if quiet == 0 || burst == 0 {
		t.Fatalf("schedule not bursty: %d quiet, %d burst dumps", quiet, burst)
	}
	// Somewhere the schedule must jump by at least 10x dump-to-dump.
	jumped := false
	for s := int64(1); s < 60; s++ {
		lo, hi := d.BurstFactor(s-1), d.BurstFactor(s)
		if lo > hi {
			lo, hi = hi, lo
		}
		if hi/lo >= 10 {
			jumped = true
			break
		}
	}
	if !jumped {
		t.Fatal("no 10x dump-to-dump size jump in 60 dumps")
	}
}

func TestExplicitScheduleOverride(t *testing.T) {
	sched := []float64{1, 50, 50, 1, 100}
	d, err := New(Config{NumRanks: 1, BaseFrames: 4, Steps: 5, Schedule: sched})
	if err != nil {
		t.Fatal(err)
	}
	for s, f := range sched {
		if d.BurstFactor(int64(s)) != f {
			t.Fatalf("dump %d factor %g, want %g", s, d.BurstFactor(int64(s)), f)
		}
	}
	if n := d.FrameCount(1); n != 200 {
		t.Fatalf("burst frame count %d, want 200", n)
	}
	if _, err := New(Config{NumRanks: 1, Steps: 5, Schedule: []float64{1, 2}}); err == nil {
		t.Fatal("short schedule accepted")
	}
	if _, err := New(Config{NumRanks: 1, Steps: 1, Schedule: []float64{0.5}}); err == nil {
		t.Fatal("sub-unit factor accepted")
	}
}

func TestFramesShapeAndContent(t *testing.T) {
	d, err := New(Config{NumRanks: 2, Rank: 1, BaseFrames: 6, Steps: 10, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	arr := d.Frames(0)
	n := d.FrameCount(0)
	if len(arr.Dims) != 2 || arr.Dims[0] != uint64(n) || arr.Dims[1] != AttrCount {
		t.Fatalf("dims %v, want [%d %d]", arr.Dims, n, AttrCount)
	}
	if len(arr.Float64) != n*AttrCount {
		t.Fatalf("payload %d values, want %d", len(arr.Float64), n*AttrCount)
	}
	for i := 0; i < n; i++ {
		row := arr.Float64[i*AttrCount:]
		if row[AttrFrameID] != float64(i) {
			t.Fatalf("frame %d id %g", i, row[AttrFrameID])
		}
		if row[AttrX] < 0 || row[AttrX] >= 2048 || row[AttrY] < 0 || row[AttrY] >= 2048 {
			t.Fatalf("frame %d position (%g, %g) off the detector", i, row[AttrX], row[AttrY])
		}
		if row[AttrIntensity] < 0 {
			t.Fatalf("frame %d negative intensity", i)
		}
	}

	// Distinct ranks produce distinct content for the same dump.
	d0, _ := New(Config{NumRanks: 2, Rank: 0, BaseFrames: 6, Steps: 10, Seed: 42})
	other := d0.Frames(0)
	same := true
	for i := range arr.Float64 {
		if arr.Float64[i] != other.Float64[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("ranks 0 and 1 produced identical frame content")
	}
}

func TestTotalFramesMatchesSchedule(t *testing.T) {
	d, err := New(Config{NumRanks: 1, BaseFrames: 3, Steps: 20, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for s := int64(0); s < 20; s++ {
		want += int64(math.Round(3 * d.BurstFactor(s)))
	}
	if got := d.TotalFrames(); got != want {
		t.Fatalf("TotalFrames %d, want %d", got, want)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Rank: 2, NumRanks: 2}); err == nil {
		t.Fatal("rank out of range accepted")
	}
	if _, err := New(Config{NumRanks: 1, Steps: -1}); err == nil {
		t.Fatal("negative steps accepted")
	}
}

func TestSchema(t *testing.T) {
	sch := Schema()
	if sch.Name != "xray_frames" || len(sch.Fields) != 1 {
		t.Fatalf("schema %+v", sch)
	}
}
