// Package bp implements a BP-like self-indexing scientific file format on
// top of the pfs package, modeled on the ADIOS BP design: data is appended
// as per-writer "process groups" (PGs) carrying variable chunks, and a
// footer index written at close time records where every chunk of every
// variable lives, so readers can locate data without scanning.
//
// The package supports the two layouts whose read-performance difference
// the paper's Fig. 11 measures:
//
//   - chunked: each process writes its local piece of each global array
//     into its own PG, so a global array is scattered across as many
//     extents as there were writers (ADIOS synchronous MPI-IO layout);
//   - merged: the staging area's layout-reorganization operator has merged
//     the pieces, so each global array is one contiguous extent.
package bp

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"
	"sync"
	"time"

	"predata/internal/ffs"
	"predata/internal/pfs"
	"predata/internal/poison"
	"predata/internal/wire"
)

// Magic values delimiting a BP file.
const (
	headerMagic = 0x42503031 // "BP01"
	footerMagic = 0x42504658 // "BPFX"
)

// VarChunk is one writer's piece of a variable at one timestep. For a
// purely local variable, Global and Offsets are nil. Data is row-major in
// Dims order.
type VarChunk struct {
	Name    string
	Dims    []uint64
	Global  []uint64
	Offsets []uint64
	Data    []float64
}

// Validate checks the chunk's geometry (ffs.Box) and that Data holds the
// elements its dims imply.
func (vc *VarChunk) Validate() error {
	n, err := vc.shape()
	if err != nil {
		return err
	}
	if uint64(len(vc.Data)) != n {
		return fmt.Errorf("bp: variable %q dims %v imply %d elements, have %d",
			vc.Name, vc.Dims, n, len(vc.Data))
	}
	return nil
}

// shape checks everything but Data, which a reserved chunk does not have
// yet, and returns the chunk's element count.
func (vc *VarChunk) shape() (uint64, error) {
	if vc.Name == "" {
		return 0, fmt.Errorf("bp: chunk with empty variable name")
	}
	n, err := ffs.Box(vc.Dims, vc.Global, vc.Offsets)
	if err != nil {
		return 0, fmt.Errorf("bp: variable %q: %w", vc.Name, err)
	}
	return n, nil
}

// indexEntry locates one chunk's payload within the file.
type indexEntry struct {
	Name       string
	Timestep   int64
	WriterRank int64
	Dims       []uint64
	Global     []uint64
	Offsets    []uint64
	DataOff    int64  // file offset of the float64 payload
	Checksum   uint32 // CRC-32 (IEEE) of the payload bytes
	Elems      uint64 // element count of Dims (ffs.Box); not in the file
}

// Writer appends process groups to a BP file and writes the index footer
// on Close. It is safe for concurrent use: in the MPI-IO configuration all
// compute ranks write process groups into one shared file, exactly as the
// ADIOS synchronous MPI-IO method does.
type Writer struct {
	fs     *pfs.FileSystem // whose free list reserve draws groups from
	f      *pfs.File
	mu     sync.Mutex
	index  []indexEntry
	off    int64
	closed bool
	// ModeledTime accumulates the modeled durations of all pfs requests
	// issued by this writer. Guarded by mu.
	ModeledTime time.Duration
	// attrs is the attribute table written with the footer. Guarded by mu.
	attrs map[string]Attribute
}

// CreateWriter creates the named BP file on fs with the given stripe count.
func CreateWriter(fs *pfs.FileSystem, name string, stripes int) (*Writer, error) {
	f, err := fs.Create(name, stripes)
	if err != nil {
		return nil, err
	}
	w := &Writer{fs: fs, f: f}
	hdr := binary.LittleEndian.AppendUint32(nil, headerMagic)
	d, err := f.WriteAt(hdr, 0)
	if err != nil {
		return nil, err
	}
	w.ModeledTime += d
	w.off = int64(len(hdr))
	return w, nil
}

// foldBlock is the elements a producer folds at a time: one visited block
// (ffs.VisitBlockBytes), small enough to be in cache still when Fold reads
// what was just written.
const foldBlock = ffs.VisitBlockBytes / 8

// WritePG appends one process group: all chunks output by one writer rank
// at one timestep. It returns the modeled duration of the file write.
// Concurrent WritePG calls from different ranks are serialized only for
// offset reservation; the data writes themselves proceed in parallel.
func (w *Writer) WritePG(rank int, timestep int64, chunks []VarChunk) (time.Duration, error) {
	for i := range chunks {
		if err := chunks[i].Validate(); err != nil {
			return 0, err
		}
	}
	pg, err := w.reserve(rank, timestep, chunks)
	if err != nil {
		return 0, err
	}
	for i := range chunks {
		src, dst := chunks[i].Data, pg.Chunks[i].Data
		for lo := 0; lo < len(src); lo += foldBlock {
			hi := min(lo+foldBlock, len(src))
			copy(dst[lo:hi], src[lo:hi])
			if err := pg.Fold(i, lo, hi); err != nil {
				return 0, err
			}
		}
	}
	return pg.Commit()
}

// PG is a reserved process group: laid out and sized, its payloads still to
// be filled. Nothing reaches the file until Commit, so an abandoned PG costs
// its memory and nothing else.
type PG struct {
	// Chunks are the group's variables in the order reserved. Each Data
	// has the length its Dims imply and lies inside the group's one
	// buffer, so what the producer computes into it is already in place.
	Chunks []VarChunk

	w       *Writer
	frame   []byte // the whole group as it will sit in the file
	entries []indexEntry
	folded  []int // per chunk, the elements Fold has checksummed (entries[i].Checksum)
}

// ReservePG lays out one process group for the given chunk shapes (Data
// must be nil) and returns it for the caller to fill and Commit. This is how
// an operator that computes its output — rather than holding it already —
// writes it exactly once.
//
// The group's buffer is, when one fits, a buffer of a file dropped from the
// writer's file system (pfs.FileSystem.Reuse), and it is not cleared: Data
// holds whatever that file held (0xA5 in a predata_poison build). The
// producer must write every element of every chunk before Commit.
func (w *Writer) ReservePG(rank int, timestep int64, chunks []VarChunk) (*PG, error) {
	for i := range chunks {
		if chunks[i].Data != nil {
			return nil, fmt.Errorf("bp: reserving variable %q that already has data (use WritePG)", chunks[i].Name)
		}
	}
	return w.reserve(rank, timestep, chunks)
}

// reserve is the one place a process group is laid out: the chunk count,
// each chunk's name and dimension vectors, then the payloads contiguously.
// The group is sized first so that it is one buffer, written once and handed
// to the file system as one sequential write. That buffer is the shortest
// one on the file system's free list that holds the group with at most an
// eighth to spare, else a new one. The chunks' shapes are checked here;
// their Data is ignored.
func (w *Writer) reserve(rank int, timestep int64, chunks []VarChunk) (*PG, error) {
	pg := &PG{
		Chunks: slices.Clone(chunks), w: w,
		entries: make([]indexEntry, len(chunks)), folded: make([]int, len(chunks)),
	}
	header, words := 4, 0
	for i := range pg.Chunks {
		c := &pg.Chunks[i]
		n, err := c.shape()
		if err != nil {
			return nil, err
		}
		header += 4 + len(c.Name) + 3*4 + 8*(len(c.Dims)+len(c.Global)+len(c.Offsets))
		words += int(n)
		pg.entries[i] = indexEntry{
			Name:       c.Name,
			Timestep:   timestep,
			WriterRank: int64(rank),
			Dims:       c.Dims,
			Global:     c.Global,
			Offsets:    c.Offsets,
			Elems:      n,
		}
	}
	// A group's buffer ends on a word boundary, so one that is d bytes
	// longer than needed leaves the d mod 8 bytes Float64FrameIn skips.
	// Any other buffer (an imported file's) may not fit and is let go.
	need := header + 8*words
	frame, payload, ok := wire.Float64FrameIn(w.fs.Reuse(need, need+need/8), header, words)
	if !ok {
		frame, payload = wire.Float64Frame(header, words)
	}
	pg.frame = frame
	hdr := binary.LittleEndian.AppendUint32(frame[:0], uint32(len(chunks)))
	for i := range pg.Chunks {
		c, e := &pg.Chunks[i], &pg.entries[i]
		hdr = wire.AppendString(hdr, c.Name)
		hdr = wire.AppendU64s(hdr, c.Dims)
		hdr = wire.AppendU64s(hdr, c.Global)
		hdr = wire.AppendU64s(hdr, c.Offsets)
		// Payload offsets are relative to the start of the group until
		// Commit knows where the group lands.
		e.DataOff = int64(len(frame) - 8*len(payload))
		c.Data, payload = payload[:e.Elems:e.Elems], payload[e.Elems:]
	}
	return pg, nil
}

// Fold extends chunk i's checksum over elements [lo, hi) of its Data, which
// the producer has just finished: lo must be where the chunk's last fold
// ended (0 at first), and the producer must not write a folded element
// again. A producer that folds each block it fills while the block is in
// cache spares Commit a cold pass over it; Commit folds whatever is left.
func (pg *PG) Fold(i, lo, hi int) error {
	if pg.frame == nil {
		return fmt.Errorf("bp: fold of a committed process group")
	}
	if i < 0 || i >= len(pg.Chunks) {
		return fmt.Errorf("bp: fold of chunk %d in a group of %d", i, len(pg.Chunks))
	}
	e, data := &pg.entries[i], pg.Chunks[i].Data
	if lo != pg.folded[i] || hi < lo || hi > len(data) || uint64(len(data)) != e.Elems {
		return fmt.Errorf("bp: variable %q: fold of elements [%d, %d) after the first %d of %d",
			e.Name, lo, hi, pg.folded[i], e.Elems)
	}
	raw := pg.frame[e.DataOff+8*int64(lo):][:8*(hi-lo)]
	wire.PutFloat64s(raw, data[lo:hi])
	e.Checksum = crc32.Update(e.Checksum, crc32.IEEETable, raw)
	pg.folded[i] = hi
	return nil
}

// Commit checksums what Fold has not, reserves the group's place in the
// file and writes it, returning the modeled duration. The buffer passes to
// the file system: after Commit the caller may still read Chunks[i].Data,
// until the file is dropped (pfs.FileSystem.Remove), but must never write
// to it again. A PG commits once.
func (pg *PG) Commit() (time.Duration, error) {
	if pg.frame == nil {
		return 0, fmt.Errorf("bp: process group already committed")
	}
	// Each payload carries a CRC so readers can detect corruption.
	for i := range pg.Chunks {
		if err := pg.Chunks[i].Validate(); err != nil {
			return 0, err // the caller replaced Data or Dims
		}
		e := &pg.entries[i]
		if err := pg.Fold(i, pg.folded[i], int(e.Elems)); err != nil {
			return 0, err
		}
		if poison.Enabled && crc32.ChecksumIEEE(pg.frame[e.DataOff:][:8*e.Elems]) != e.Checksum {
			return 0, fmt.Errorf("bp: variable %q: payload written after it was folded", e.Name)
		}
	}
	frame := pg.frame
	pg.frame = nil

	// Reserve the file region and publish index entries.
	w := pg.w
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return 0, fmt.Errorf("bp: write to closed writer")
	}
	base := w.off
	w.off += int64(len(frame))
	for i := range pg.entries {
		pg.entries[i].DataOff += base
	}
	w.index = append(w.index, pg.entries...)
	w.mu.Unlock()

	d, err := w.f.WriteOwned(frame, base)
	if err != nil {
		return 0, err
	}
	w.mu.Lock()
	w.ModeledTime += d
	w.mu.Unlock()
	return d, nil
}

// Close writes the footer index and finalizes the file.
func (w *Writer) Close() (time.Duration, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, fmt.Errorf("bp: double close")
	}
	w.closed = true
	foot := make([]byte, 0, 4096)
	foot = binary.LittleEndian.AppendUint64(foot, uint64(len(w.index)))
	for _, e := range w.index {
		foot = wire.AppendString(foot, e.Name)
		foot = binary.LittleEndian.AppendUint64(foot, uint64(e.Timestep))
		foot = binary.LittleEndian.AppendUint64(foot, uint64(e.WriterRank))
		foot = wire.AppendU64s(foot, e.Dims)
		foot = wire.AppendU64s(foot, e.Global)
		foot = wire.AppendU64s(foot, e.Offsets)
		foot = binary.LittleEndian.AppendUint64(foot, uint64(e.DataOff))
		foot = binary.LittleEndian.AppendUint32(foot, e.Checksum)
	}
	foot = append(foot, encodeAttributes(w.attrs)...)
	// Trailer: footer length and magic, so a reader can find the footer
	// from the end of the file.
	foot = binary.LittleEndian.AppendUint64(foot, uint64(len(foot)))
	foot = binary.LittleEndian.AppendUint32(foot, footerMagic)
	d, err := w.f.WriteAt(foot, w.off)
	if err != nil {
		return 0, err
	}
	w.ModeledTime += d
	w.off += int64(len(foot))
	return d, nil
}

// VarInfo summarizes one variable at one timestep.
type VarInfo struct {
	Name     string
	Timestep int64
	// Global is the global dimension vector; for a local-only variable it
	// is what ReadVar returns: the entries' dims stacked along dimension 0.
	Global []uint64
	// Chunks is the number of extents holding the variable's data: the
	// writer count for chunked layout, 1 for merged layout.
	Chunks int
}

// Reader reads a BP file via its footer index.
type Reader struct {
	f     *pfs.File
	index []indexEntry
	attrs map[string]Attribute
	// ModeledTime accumulates the modeled durations of all pfs requests.
	ModeledTime time.Duration
}

// OpenReader opens the named BP file and loads its index.
func OpenReader(fs *pfs.FileSystem, name string) (*Reader, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	r := &Reader{f: f}
	size := f.Size()
	if size < 16 {
		return nil, fmt.Errorf("bp: %s too small to be a BP file", name)
	}
	trailer := make([]byte, 12)
	d, err := f.ReadAt(trailer, size-12)
	if err != nil {
		return nil, err
	}
	r.ModeledTime += d
	if m := binary.LittleEndian.Uint32(trailer[8:]); m != footerMagic {
		return nil, fmt.Errorf("bp: %s missing footer magic (0x%08x)", name, m)
	}
	footLen := int64(binary.LittleEndian.Uint64(trailer[:8]))
	if footLen <= 0 || footLen > size-12 {
		return nil, fmt.Errorf("bp: %s has implausible footer length %d", name, footLen)
	}
	dataEnd := size - 12 - footLen
	foot := make([]byte, footLen)
	d, err = f.ReadAt(foot, dataEnd)
	if err != nil {
		return nil, err
	}
	r.ModeledTime += d
	if err := r.parseFooter(foot, dataEnd); err != nil {
		return nil, fmt.Errorf("bp: %s: %w", name, err)
	}
	return r, nil
}

// parseFooter loads the index and the attribute table. The footer comes
// from outside the program, so each entry is checked before anything
// trusts it: its geometry with ffs.Box, and its payload against the data
// region between the file's 4-byte header and dataEnd, where the footer
// starts.
func (r *Reader) parseFooter(foot []byte, dataEnd int64) error {
	c := wire.NewCursor(foot, "bp footer")
	// An entry takes at least 44 bytes: the name's length, timestep, rank,
	// three vector counts, payload offset and checksum.
	n := c.U64()
	if left := c.Left(); c.Err() == nil && n > uint64(left/44) {
		return fmt.Errorf("implausible index size %d for %d bytes left", n, left)
	}
	for range n {
		e := indexEntry{
			Name:       c.Str(),
			Timestep:   int64(c.U64()),
			WriterRank: int64(c.U64()),
			Dims:       c.U64s(),
			Global:     c.U64s(),
			Offsets:    c.U64s(),
			DataOff:    int64(c.U64()),
			Checksum:   c.U32(),
		}
		if c.Err() != nil {
			return c.Err()
		}
		var err error
		if e.Elems, err = ffs.Box(e.Dims, e.Global, e.Offsets); err != nil {
			return fmt.Errorf("variable %q: %w", e.Name, err)
		}
		if e.DataOff < 4 || e.DataOff > dataEnd || e.Elems > uint64(dataEnd-e.DataOff)/8 {
			return fmt.Errorf("variable %q: %d-element payload at offset %d lies outside the data region [4, %d)",
				e.Name, e.Elems, e.DataOff, dataEnd)
		}
		r.index = append(r.index, e)
	}
	attrs, err := decodeAttributes(c)
	if err != nil {
		return err
	}
	r.attrs = attrs
	return nil
}

// Vars lists the variables present in the file, one entry per
// (name, timestep), sorted by name then timestep.
func (r *Reader) Vars() []VarInfo {
	type key struct {
		name string
		step int64
	}
	agg := make(map[key]*VarInfo)
	for _, e := range r.index {
		k := key{e.Name, e.Timestep}
		vi, ok := agg[k]
		if !ok {
			g := e.Global
			if g == nil {
				g = slices.Clone(e.Dims)
			}
			vi = &VarInfo{Name: e.Name, Timestep: e.Timestep, Global: g}
			agg[k] = vi
		} else if e.Global == nil && len(e.Dims) > 0 && len(vi.Global) > 0 {
			vi.Global[0] += e.Dims[0]
		}
		vi.Chunks++
	}
	out := make([]VarInfo, 0, len(agg))
	for _, vi := range agg {
		out = append(out, *vi)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Timestep < out[j].Timestep
	})
	return out
}

// ReadVar assembles the full array of the named variable at the given
// timestep, issuing one pfs read per stored chunk: a global variable's
// chunks are scattered to their offsets; a local variable's entries (no
// global dimensions — one per process group that wrote it) are
// concatenated in index order along dimension 0, so the returned dims
// carry the summed first dimension. The returned duration is the sum of
// the modeled chunk-read durations — the quantity Fig. 11 compares
// between merged and unmerged files.
func (r *Reader) ReadVar(name string, timestep int64) ([]float64, []uint64, time.Duration, error) {
	var entries []indexEntry
	for _, e := range r.index {
		if e.Name == name && e.Timestep == timestep {
			entries = append(entries, e)
		}
	}
	if len(entries) == 0 {
		return nil, nil, 0, fmt.Errorf("bp: variable %q timestep %d not in file", name, timestep)
	}
	global := entries[0].Global
	if global != nil {
		for _, e := range entries[1:] {
			if !slices.Equal(e.Global, global) {
				return nil, nil, 0, fmt.Errorf("bp: variable %q timestep %d: chunks disagree on global dims (%v vs %v)",
					name, timestep, global, e.Global)
			}
		}
	} else {
		global = append([]uint64(nil), entries[0].Dims...)
		for _, e := range entries[1:] {
			if len(e.Dims) == 0 || e.Global != nil || len(e.Dims) != len(global) || !slices.Equal(e.Dims[1:], global[1:]) {
				return nil, nil, 0, fmt.Errorf("bp: local variable %q timestep %d: entry dims %v do not stack on %v",
					name, timestep, e.Dims, entries[0].Dims)
			}
			global[0] += e.Dims[0]
		}
	}
	// The whole global array the index declares is allocated, however few
	// of its elements the file holds: a valid file may write one chunk of a
	// large array (the benchmark's layer walk reads one [8 8 16] chunk from
	// a 754-byte file), so the file's size bounds the chunks, not this.
	// Whether an array is too large to read is the caller's decision, made
	// from VarInfo.Global.
	n, err := ffs.Box(global, nil, nil)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("bp: variable %q timestep %d: %w", name, timestep, err)
	}
	out := make([]float64, n)
	var total time.Duration
	next := 0 // where the next local entry lands
	for _, e := range entries {
		data, d, err := r.readChunkPayload(e)
		if err != nil {
			return nil, nil, total, err
		}
		total += d
		if e.Global == nil {
			next += copy(out[next:], data)
			continue
		}
		ffs.Scatter(out, global, data, e.Dims, e.Offsets)
	}
	r.ModeledTime += total
	return out, global, total, nil
}

// readChunkPayload reads one chunk's float64 payload, verifying its CRC.
func (r *Reader) readChunkPayload(e indexEntry) ([]float64, time.Duration, error) {
	raw := make([]byte, 8*e.Elems)
	d, err := r.f.ReadAt(raw, e.DataOff)
	if err != nil {
		return nil, 0, err
	}
	if got := crc32.ChecksumIEEE(raw); got != e.Checksum {
		return nil, 0, fmt.Errorf("bp: variable %q chunk at offset %d failed checksum (got %08x want %08x)",
			e.Name, e.DataOff, got, e.Checksum)
	}
	// raw is private to this call, so the payload is read in place.
	return wire.Float64s(raw), d, nil
}
