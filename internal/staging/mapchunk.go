package staging

import (
	"fmt"
	"hash/crc32"
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
// unchecked and returned, and a Map error on it is judged by its
// payload's sum.
func (m *mapper) mapChunk(chunk *Chunk) *Chunk {
	shed := chunk.Shed
	if m.checks != nil && chunk.Unverified != nil {
		k := m.checks.add(chunk)
		// Map runs on bytes nobody has checked; an error it reports may be
		// their damage, which the payload's sum settles now.
		if err := m.mapOps(chunk, shed); err != nil {
			if crc32.ChecksumIEEE(chunk.Unverified) == chunk.Sum {
				m.fail(err)
			} else {
				k.bad = true
			}
		}
		return chunk
	}
	for chunk.Unverified != nil {
		walked, ok := m.walk(chunk, shed)
		if ok {
			if walked {
				return chunk
			}
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
// on a match. When every operator that sees the chunk is a BlockMapper and
// the record has one float64 array, the check and the Map are one walk:
// each block of the payload is folded into the checksum and handed to
// every operator while it is still in cache, and the operators emit only
// after the last block matched — walked reports that they did. Otherwise
// the payload is checksummed in one pass and the caller maps the chunk.
func (m *mapper) walk(chunk *Chunk, shed ShedClass) (walked, ok bool) {
	_, a := ffs.SoleFloat64Array(chunk.Record)
	var rms []RowMapper
	if a != nil {
		rms = m.startRows(chunk, shed)
	}
	if rms == nil {
		return false, crc32.ChecksumIEEE(chunk.Unverified) == chunk.Sum
	}
	spent := make([]time.Duration, len(m.ops))
	var sum uint32
	err := ffs.Walk(chunk.Unverified, chunk.Record, func(b []byte, blk *ffs.Array, lo, hi int) {
		sum = crc32.Update(sum, crc32.IEEETable, b)
		if blk != a {
			return
		}
		for i, rm := range rms {
			if rm != nil {
				start := time.Now()
				rm.MapRows(lo, hi)
				spent[i] += time.Since(start)
			}
		}
	})
	if err != nil {
		// The payload does not walk as the record it decoded to: check it
		// whole, and let Map judge the record.
		return false, crc32.ChecksumIEEE(chunk.Unverified) == chunk.Sum
	}
	if sum != chunk.Sum {
		return false, false // the accumulators are dropped unemitted
	}
	for i, rm := range rms {
		if rm != nil {
			start := time.Now()
			rm.Emit()
			m.spent[i].Add(int64(spent[i] + time.Since(start)))
		}
	}
	return true, true
}

// startRows starts every operator that sees chunk on it, indexed like
// m.ops, or returns nil when none sees it or one cannot map it block by
// block.
func (m *mapper) startRows(chunk *Chunk, shed ShedClass) []RowMapper {
	var rms []RowMapper
	for i, op := range m.ops {
		if !m.sees(i, shed) {
			continue
		}
		bm, ok := op.(BlockMapper)
		if !ok {
			return nil
		}
		rm, err := bm.StartMap(m.ctxs[i], chunk)
		if err != nil {
			return nil // Map reports it, once the bytes are known to be intact
		}
		if rms == nil {
			rms = make([]RowMapper, len(m.ops))
		}
		rms[i] = rm
	}
	return rms
}
