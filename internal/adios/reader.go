package adios

import (
	"fmt"
	"sort"
	"time"

	"predata/internal/bp"
	"predata/internal/ffs"
	"predata/internal/pfs"
)

// Reader is the read-side ADIOS API: step-oriented iteration over a BP
// file, mirroring the write side's BeginStep/EndStep discipline. Analysis
// codes (the paper's VisIt-style consumers) walk the available steps and
// read full variables.
type Reader struct {
	r     *bp.Reader
	steps []int64

	cur     int
	open    bool
	Modeled time.Duration
}

// OpenReader opens the named BP file on fs.
func OpenReader(fs *pfs.FileSystem, name string) (*Reader, error) {
	br, err := bp.OpenReader(fs, name)
	if err != nil {
		return nil, err
	}
	rd := &Reader{r: br, cur: -1}
	stepSet := map[int64]bool{}
	for _, vi := range br.Vars() {
		stepSet[vi.Timestep] = true
	}
	for s := range stepSet {
		rd.steps = append(rd.steps, s)
	}
	sort.Slice(rd.steps, func(i, j int) bool { return rd.steps[i] < rd.steps[j] })
	return rd, nil
}

// Steps returns the timesteps present in the file, ascending.
func (rd *Reader) Steps() []int64 {
	return append([]int64(nil), rd.steps...)
}

// BeginStep advances to the next available step. It returns false when
// the file has no more steps.
func (rd *Reader) BeginStep() (step int64, ok bool, err error) {
	if rd.open {
		return 0, false, fmt.Errorf("adios: BeginStep with step %d open", rd.steps[rd.cur])
	}
	if rd.cur+1 >= len(rd.steps) {
		return 0, false, nil
	}
	rd.cur++
	rd.open = true
	return rd.steps[rd.cur], true, nil
}

// EndStep closes the current step.
func (rd *Reader) EndStep() error {
	if !rd.open {
		return fmt.Errorf("adios: EndStep outside a step")
	}
	rd.open = false
	return nil
}

// Read returns the named variable's full global array at the open step.
func (rd *Reader) Read(name string) (*ffs.Array, error) {
	if !rd.open {
		return nil, fmt.Errorf("adios: Read(%q) outside a step", name)
	}
	data, dims, d, err := rd.r.ReadVar(name, rd.steps[rd.cur])
	if err != nil {
		return nil, err
	}
	rd.Modeled += d
	return &ffs.Array{Dims: dims, Float64: data}, nil
}
