// Package adios provides an ADIOS-like I/O API: applications declare a
// data group (schema), then per output step stage variable values and
// commit. The transport method is pluggable behind the Writer interface,
// so switching an application between the paper's two configurations is a
// one-line change, just as swapping ADIOS methods is in the real system:
//
//   - MPIIOWriter writes synchronously into a shared BP file on the
//     parallel file system (the "In-Compute-Node" configuration);
//   - StagingWriter hands the step to the PreDatA client, which packs the
//     data and returns as soon as the fetch request is dispatched (the
//     "Staging" configuration).
//
// The GTC and Pixie3D proxies hold to it: their WriteOutput numbers
// outputs from 0, the timesteps a staging run serves, so the same
// per-rank code runs under either writer and dump i is timestep i in
// both.
package adios

import (
	"fmt"
	"time"

	"predata/internal/bp"
	"predata/internal/ffs"
	"predata/internal/predata"
)

// StepResult reports the cost of committing one output step.
type StepResult struct {
	// Real is the wall-clock time actually spent in this process.
	Real time.Duration
	// Modeled is the I/O blocking time under the machine model: for the
	// synchronous method this is the modeled parallel-file-system write
	// time; for staging it equals Real (packing and request dispatch).
	Modeled time.Duration
	// Bytes is the payload volume committed.
	Bytes int64
}

// Writer is one rank's handle on an output group.
type Writer interface {
	// BeginStep opens output for a timestep.
	BeginStep(step int64) error
	// Write stages a value for the open step. Accepted types: *ffs.Array,
	// []float64 (1D local array), and float64 (scalar).
	Write(name string, value any) error
	// EndStep commits the staged values and returns the step's cost.
	EndStep() (StepResult, error)
	// Close finalizes the output stream.
	Close() error
}

// MPIIOWriter commits steps synchronously into a shared BP file.
type MPIIOWriter struct {
	rank    int
	w       *bp.Writer
	ownsBP  bool
	step    int64
	open    bool
	pending []bp.VarChunk
}

// NewMPIIOWriter returns a writer for one rank appending to the shared BP
// writer w (all ranks of a job share one *bp.Writer, as all MPI ranks
// share one file). If closeFile is true, Close also closes w — exactly one
// rank (conventionally rank 0 after a barrier) should pass true.
func NewMPIIOWriter(w *bp.Writer, rank int, closeFile bool) (*MPIIOWriter, error) {
	if w == nil {
		return nil, fmt.Errorf("adios: nil bp writer")
	}
	return &MPIIOWriter{rank: rank, w: w, ownsBP: closeFile}, nil
}

// BeginStep opens a step.
func (m *MPIIOWriter) BeginStep(step int64) error {
	if m.open {
		return fmt.Errorf("adios: BeginStep with step %d already open", m.step)
	}
	m.step = step
	m.open = true
	m.pending = m.pending[:0]
	return nil
}

// Write stages one variable value.
func (m *MPIIOWriter) Write(name string, value any) error {
	if !m.open {
		return fmt.Errorf("adios: Write(%q) outside a step", name)
	}
	chunk, err := toChunk(name, value)
	if err != nil {
		return err
	}
	m.pending = append(m.pending, chunk)
	return nil
}

// EndStep writes the staged chunks as one process group and blocks for the
// modeled synchronous write duration.
func (m *MPIIOWriter) EndStep() (StepResult, error) {
	if !m.open {
		return StepResult{}, fmt.Errorf("adios: EndStep outside a step")
	}
	m.open = false
	start := time.Now()
	var bytes int64
	for i := range m.pending {
		bytes += int64(len(m.pending[i].Data)) * 8
	}
	d, err := m.w.WritePG(m.rank, m.step, m.pending)
	if err != nil {
		return StepResult{}, err
	}
	return StepResult{Real: time.Since(start), Modeled: d, Bytes: bytes}, nil
}

// Close finalizes the shared file if this rank owns it.
func (m *MPIIOWriter) Close() error {
	if !m.ownsBP {
		return nil
	}
	_, err := m.w.Close()
	return err
}

// toChunk converts an accepted value into a bp.VarChunk.
func toChunk(name string, value any) (bp.VarChunk, error) {
	switch v := value.(type) {
	case *ffs.Array:
		if v.Int64 != nil {
			return bp.VarChunk{}, fmt.Errorf("adios: variable %q: int64 arrays unsupported by BP layer", name)
		}
		return bp.VarChunk{Name: name, Dims: v.Dims, Global: v.Global, Offsets: v.Offsets, Data: v.Float64}, nil
	case []float64:
		return bp.VarChunk{Name: name, Dims: []uint64{uint64(len(v))}, Data: v}, nil
	case float64:
		return bp.VarChunk{Name: name, Dims: []uint64{1}, Data: []float64{v}}, nil
	default:
		return bp.VarChunk{}, fmt.Errorf("adios: variable %q has unsupported type %T", name, value)
	}
}

// StagingWriter commits steps through the PreDatA client: pack, expose,
// request — and returns immediately.
type StagingWriter struct {
	client  *predata.Client
	group   *ffs.Schema
	step    int64
	open    bool
	pending ffs.Record
}

// NewStagingWriter returns a writer committing the named group through the
// PreDatA client. The group schema fixes the variable set; every step must
// write exactly the schema's fields.
func NewStagingWriter(client *predata.Client, group *ffs.Schema) (*StagingWriter, error) {
	if client == nil {
		return nil, fmt.Errorf("adios: nil predata client")
	}
	if group == nil || len(group.Fields) == 0 {
		return nil, fmt.Errorf("adios: staging writer needs a non-empty group schema")
	}
	return &StagingWriter{client: client, group: group}, nil
}

// BeginStep opens a step.
func (s *StagingWriter) BeginStep(step int64) error {
	if s.open {
		return fmt.Errorf("adios: BeginStep with step %d already open", s.step)
	}
	s.step = step
	s.open = true
	s.pending = make(ffs.Record, len(s.group.Fields))
	return nil
}

// Write stages one variable value; the name must be a schema field.
func (s *StagingWriter) Write(name string, value any) error {
	if !s.open {
		return fmt.Errorf("adios: Write(%q) outside a step", name)
	}
	if s.group.FieldIndex(name) < 0 {
		return fmt.Errorf("adios: variable %q not declared in group %q", name, s.group.Name)
	}
	s.pending[name] = value
	return nil
}

// EndStep packs the staged record and dispatches the fetch request.
func (s *StagingWriter) EndStep() (StepResult, error) {
	if !s.open {
		return StepResult{}, fmt.Errorf("adios: EndStep outside a step")
	}
	s.open = false
	before := s.client.PackedBytes
	visible, err := s.client.Write(s.group, s.pending, s.step)
	if err != nil {
		return StepResult{}, err
	}
	return StepResult{Real: visible, Modeled: visible, Bytes: s.client.PackedBytes - before}, nil
}

// Close is a no-op: the staging area owns downstream resources.
func (s *StagingWriter) Close() error { return nil }

// Compile-time interface checks.
var (
	_ Writer = (*MPIIOWriter)(nil)
	_ Writer = (*StagingWriter)(nil)
)
