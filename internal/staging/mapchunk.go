package staging

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"predata/internal/ffs"
)

// mapper runs one pass of a dump's Map phase for the engine's workers:
// each chunk through every operator that sees it, its payload verified on
// the way or its check left to Reduce.
type mapper struct {
	ops      []Operator
	ctxs     []*Context
	optional []bool
	spent    []atomic.Int64 // Map time per operator, summed over workers
	// checks, when non-nil, takes every unchecked chunk's check, which
	// waits for Reduce (VerifyingReducer).
	checks *checks

	mu  sync.Mutex
	err error // the first failure
}

func (m *mapper) fail(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err == nil {
		m.err = err
	}
}

// sees reports whether operator i maps chunks of shed class c.
func (m *mapper) sees(i int, c ShedClass) bool { return !m.optional[i] || c != ShedSkipped }

// mapChunk maps chunk through every operator that sees it and returns the
// chunk it mapped: chunk itself, the intact copy that replaced it, or nil
// when its payload failed verification and nothing replaced it. Only the
// returned chunk's fields are known to come from intact bytes — except
// while checks wait for Reduce (m.checks): such a chunk is mapped
// unchecked and returned, and a Map error on it is judged by its check,
// nothing folded yet.
func (m *mapper) mapChunk(chunk *Chunk) *Chunk {
	shed := chunk.Shed
	if m.checks != nil && chunk.Unverified != nil {
		m.checks.add(chunk)
		// Map runs on bytes nobody has checked; an error it reports may be
		// their damage, which the check settles now.
		if err := m.mapOps(chunk, shed); err != nil {
			if chunk.check.matches(chunk) {
				m.fail(err)
			} else {
				chunk.check.bad = true
			}
		}
		return chunk
	}
	for chunk.Unverified != nil {
		walked, ok := m.walk(chunk, shed)
		if walked {
			return chunk
		}
		if ok {
			break
		}
		if chunk.Corrupt == nil {
			return nil
		}
		next, err := chunk.Corrupt()
		if err != nil {
			m.fail(fmt.Errorf("staging: chunk from rank %d: %w", chunk.WriterRank, err))
			return nil
		}
		if next == nil {
			return nil
		}
		chunk = next
	}
	if err := m.mapOps(chunk, shed); err != nil {
		m.fail(err)
	}
	return chunk
}

// mapOps maps chunk through every operator that sees it and returns the
// first Map error.
func (m *mapper) mapOps(chunk *Chunk, shed ShedClass) error {
	var first error
	for i, op := range m.ops {
		if !m.sees(i, shed) {
			continue
		}
		start := time.Now()
		if err := op.Map(m.ctxs[i], chunk); err != nil && first == nil {
			first = fmt.Errorf("staging: %s.Map: %w", op.Name(), err)
		}
		m.spent[i].Add(int64(time.Since(start)))
	}
	return first
}

// walk checks chunk's unverified payload against its Sum and reports ok
// on a match. When every operator is a BlockMapper and the record has one
// float64 array, the check and the Map are one walk: each block of the
// array's payload is folded into the check and handed to every operator
// that sees the chunk while it is still in cache, and the operators emit
// only after the check matched — walked reports that they did. Otherwise
// the payload is checked whole, and a chunk that passes goes on checked.
func (m *mapper) walk(chunk *Chunk, shed ShedClass) (walked, ok bool) {
	var k check
	ext := chunk.extents()
	_, a := ffs.SoleFloat64Array(chunk.Record)
	var (
		buf [4]rowMapper
		rms []rowMapper
	)
	if len(ext) == 1 && ext[0].Array == a && BlockMapped(m.ops) {
		rms = m.startRows(chunk, shed, buf[:0])
	}
	if rms == nil {
		if !k.matches(chunk) {
			return false, false
		}
		chunk.Unverified = nil
		return false, true
	}
	e := ext[0]
	v := View{Array: a, wire: chunk.Unverified[e.Off : e.Off+e.Len]}
	if rows := int(a.Dims[0]); rows > 0 {
		step := ffs.BlockRows(max(len(a.Float64)/rows, 1))
		for lo := 0; lo < rows; lo += step {
			hi := min(lo+step, rows)
			v.fold(lo, hi)
			for i := range rms {
				if r := &rms[i]; r.rm != nil {
					start := time.Now()
					r.rm.MapRows(lo, hi)
					r.spent += time.Since(start)
				}
			}
		}
	}
	k.parts = []part{{sum: v.sum, known: v.folded == len(v.wire)}}
	if !k.matches(chunk) {
		return false, false // the accumulators are dropped unemitted
	}
	for i, r := range rms {
		if r.rm != nil {
			start := time.Now()
			r.rm.Emit()
			m.spent[i].Add(int64(r.spent + time.Since(start)))
		}
	}
	return true, true
}

// rowMapper is one operator's accumulator in a walk, and its Map time.
type rowMapper struct {
	rm    RowMapper
	spent time.Duration
}

// startRows starts every operator, all BlockMappers, that sees chunk on
// it, indexed like m.ops in buf's memory when it is large enough, or
// returns nil when none sees it or a StartMap fails.
func (m *mapper) startRows(chunk *Chunk, shed ShedClass, buf []rowMapper) []rowMapper {
	var rms []rowMapper
	for i, op := range m.ops {
		if !m.sees(i, shed) {
			continue
		}
		rm, err := op.(BlockMapper).StartMap(m.ctxs[i], chunk)
		if err != nil {
			return nil // Map reports it, once the bytes are known to be intact
		}
		if rms == nil {
			rms = append(buf[:0], make([]rowMapper, len(m.ops))...)
		}
		rms[i].rm = rm
	}
	return rms
}
