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

	"predata/internal/pfs"
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

// elems returns the element count implied by Dims.
func elems(dims []uint64) uint64 {
	if len(dims) == 0 {
		return 0
	}
	n := uint64(1)
	for _, d := range dims {
		n *= d
	}
	return n
}

// Validate checks the chunk's dimensional consistency.
func (vc *VarChunk) Validate() error {
	if err := vc.validateShape(); err != nil {
		return err
	}
	if uint64(len(vc.Data)) != elems(vc.Dims) {
		return fmt.Errorf("bp: variable %q dims %v imply %d elements, have %d",
			vc.Name, vc.Dims, elems(vc.Dims), len(vc.Data))
	}
	return nil
}

// validateShape checks everything but Data, which a reserved chunk does not
// have yet.
func (vc *VarChunk) validateShape() error {
	if vc.Name == "" {
		return fmt.Errorf("bp: chunk with empty variable name")
	}
	if len(vc.Dims) == 0 {
		return fmt.Errorf("bp: variable %q has no dimensions", vc.Name)
	}
	if vc.Global != nil {
		if len(vc.Global) != len(vc.Dims) || len(vc.Offsets) != len(vc.Dims) {
			return fmt.Errorf("bp: variable %q rank mismatch: dims %v global %v offsets %v",
				vc.Name, vc.Dims, vc.Global, vc.Offsets)
		}
		for i := range vc.Dims {
			if vc.Offsets[i]+vc.Dims[i] > vc.Global[i] {
				return fmt.Errorf("bp: variable %q chunk exceeds global bounds in dim %d", vc.Name, i)
			}
		}
	}
	return nil
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
}

// Writer appends process groups to a BP file and writes the index footer
// on Close. It is safe for concurrent use: in the MPI-IO configuration all
// compute ranks write process groups into one shared file, exactly as the
// ADIOS synchronous MPI-IO method does.
type Writer struct {
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
	w := &Writer{f: f}
	hdr := binary.LittleEndian.AppendUint32(nil, headerMagic)
	d, err := f.WriteAt(hdr, 0)
	if err != nil {
		return nil, err
	}
	w.ModeledTime += d
	w.off = int64(len(hdr))
	return w, nil
}

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
	pg := w.reserve(rank, timestep, chunks)
	for i := range chunks {
		copy(pg.Chunks[i].Data, chunks[i].Data)
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
}

// ReservePG lays out one process group for the given chunk shapes (Data
// must be nil) and returns it for the caller to fill and Commit. This is how
// an operator that computes its output — rather than holding it already —
// writes it exactly once.
func (w *Writer) ReservePG(rank int, timestep int64, chunks []VarChunk) (*PG, error) {
	for i := range chunks {
		if err := chunks[i].validateShape(); err != nil {
			return nil, err
		}
		if chunks[i].Data != nil {
			return nil, fmt.Errorf("bp: reserving variable %q that already has data (use WritePG)", chunks[i].Name)
		}
	}
	return w.reserve(rank, timestep, chunks), nil
}

// reserve is the one place a process group is laid out: the chunk count,
// each chunk's name and dimension vectors, then the payloads contiguously.
// The group is sized first so that it is one buffer, written once and handed
// to the file system as one sequential write. The chunks' shapes have been
// validated; their Data is ignored.
func (w *Writer) reserve(rank int, timestep int64, chunks []VarChunk) *PG {
	header, words := 4, 0
	for i := range chunks {
		c := &chunks[i]
		header += 4 + len(c.Name) + 3*4 + 8*(len(c.Dims)+len(c.Global)+len(c.Offsets))
		words += int(elems(c.Dims))
	}
	frame, payload := wire.Float64Frame(header, words)
	pg := &PG{Chunks: slices.Clone(chunks), w: w, frame: frame, entries: make([]indexEntry, len(chunks))}
	hdr := binary.LittleEndian.AppendUint32(frame[:0], uint32(len(chunks)))
	for i := range pg.Chunks {
		c := &pg.Chunks[i]
		hdr = appendString(hdr, c.Name)
		hdr = appendU64s(hdr, c.Dims)
		hdr = appendU64s(hdr, c.Global)
		hdr = appendU64s(hdr, c.Offsets)
		// Payload offsets are relative to the start of the group until
		// Commit knows where the group lands.
		n := int(elems(c.Dims))
		pg.entries[i] = indexEntry{
			Name:       c.Name,
			Timestep:   timestep,
			WriterRank: int64(rank),
			Dims:       c.Dims,
			Global:     c.Global,
			Offsets:    c.Offsets,
			DataOff:    int64(len(frame) - 8*len(payload)),
		}
		c.Data, payload = payload[:n:n], payload[n:]
	}
	return pg
}

// Commit checksums the payloads, reserves the group's place in the file and
// writes it, returning the modeled duration. The buffer passes to the file
// system: after Commit the caller may still read Chunks[i].Data but must
// never write to it again. A PG commits once.
func (pg *PG) Commit() (time.Duration, error) {
	if pg.frame == nil {
		return 0, fmt.Errorf("bp: process group already committed")
	}
	frame := pg.frame
	pg.frame = nil
	// Each payload carries a CRC so readers can detect corruption.
	for i := range pg.Chunks {
		if err := pg.Chunks[i].Validate(); err != nil {
			return 0, err // the caller replaced Data or Dims
		}
		data := pg.Chunks[i].Data
		raw := frame[pg.entries[i].DataOff:][:8*len(data)]
		wire.PutFloat64s(raw, data)
		pg.entries[i].Checksum = crc32.ChecksumIEEE(raw)
	}

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
		foot = appendString(foot, e.Name)
		foot = binary.LittleEndian.AppendUint64(foot, uint64(e.Timestep))
		foot = binary.LittleEndian.AppendUint64(foot, uint64(e.WriterRank))
		foot = appendU64s(foot, e.Dims)
		foot = appendU64s(foot, e.Global)
		foot = appendU64s(foot, e.Offsets)
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

func appendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

func appendU64s(b []byte, v []uint64) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(v)))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, x)
	}
	return b
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
	foot := make([]byte, footLen)
	d, err = f.ReadAt(foot, size-12-footLen)
	if err != nil {
		return nil, err
	}
	r.ModeledTime += d
	if err := r.parseFooter(foot); err != nil {
		return nil, fmt.Errorf("bp: %s: %w", name, err)
	}
	return r, nil
}

func (r *Reader) parseFooter(foot []byte) error {
	c := &cursor{buf: foot}
	n := int(c.u64())
	if n < 0 || n > 1<<28 {
		return fmt.Errorf("implausible index size %d", n)
	}
	for i := 0; i < n; i++ {
		e := indexEntry{
			Name:       c.str(),
			Timestep:   int64(c.u64()),
			WriterRank: int64(c.u64()),
			Dims:       c.u64s(),
			Global:     c.u64s(),
			Offsets:    c.u64s(),
		}
		e.DataOff = int64(c.u64())
		e.Checksum = c.u32()
		if c.err != nil {
			return c.err
		}
		r.index = append(r.index, e)
	}
	attrs, err := decodeAttributes(c)
	if err != nil {
		return err
	}
	r.attrs = attrs
	return c.err
}

type cursor struct {
	buf []byte
	off int
	err error
}

func (c *cursor) need(n int) bool {
	if c.err != nil {
		return false
	}
	if c.off+n > len(c.buf) {
		c.err = fmt.Errorf("truncated footer at offset %d", c.off)
		return false
	}
	return true
}

func (c *cursor) u32() uint32 {
	if !c.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(c.buf[c.off:])
	c.off += 4
	return v
}

func (c *cursor) u64() uint64 {
	if !c.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(c.buf[c.off:])
	c.off += 8
	return v
}

func (c *cursor) str() string {
	n := int(c.u32())
	if !c.need(n) {
		return ""
	}
	s := string(c.buf[c.off : c.off+n])
	c.off += n
	return s
}

func (c *cursor) u64s() []uint64 {
	n := int(c.u32())
	if n == 0 {
		return nil
	}
	if !c.need(8 * n) {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = c.u64()
	}
	return out
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
	if global == nil {
		global = append([]uint64(nil), entries[0].Dims...)
		for _, e := range entries[1:] {
			if len(e.Dims) == 0 || e.Global != nil || len(e.Dims) != len(global) || !slices.Equal(e.Dims[1:], global[1:]) {
				return nil, nil, 0, fmt.Errorf("bp: local variable %q timestep %d: entry dims %v do not stack on %v",
					name, timestep, e.Dims, entries[0].Dims)
			}
			global[0] += e.Dims[0]
		}
	}
	out := make([]float64, elems(global))
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
		scatterChunk(out, global, data, e.Dims, e.Offsets)
	}
	r.ModeledTime += total
	return out, global, total, nil
}

// readChunkPayload reads one chunk's float64 payload, verifying its CRC.
func (r *Reader) readChunkPayload(e indexEntry) ([]float64, time.Duration, error) {
	n := elems(e.Dims)
	raw := make([]byte, n*8)
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

// scatterChunk places a row-major chunk into its position within the
// row-major global array. Works for any rank.
func scatterChunk(dst []float64, global []uint64, src []float64, dims, offsets []uint64) {
	rank := len(dims)
	if rank == 0 {
		return
	}
	// Iterate over all rows (innermost dimension contiguous).
	rowLen := dims[rank-1]
	rows := elems(dims) / max(rowLen, 1)
	idx := make([]uint64, rank) // multi-index over chunk rows
	for row := uint64(0); row < rows; row++ {
		// Compute destination offset of this row.
		var dstOff uint64
		stride := uint64(1)
		for d := rank - 1; d >= 0; d-- {
			coord := offsets[d]
			if d < rank-1 {
				coord += idx[d]
			}
			dstOff += coord * stride
			stride *= global[d]
		}
		srcOff := row * rowLen
		copy(dst[dstOff:dstOff+rowLen], src[srcOff:srcOff+rowLen])
		// Advance the multi-index over the non-contiguous dimensions.
		for d := rank - 2; d >= 0; d-- {
			idx[d]++
			if idx[d] < dims[d] {
				break
			}
			idx[d] = 0
		}
	}
}
