// Package pfs models a striped parallel file system (Lustre-like) with an
// in-memory data plane and an analytic performance plane.
//
// Data written is actually stored, so readers get back exactly the bytes
// written (the BP layer depends on this). Every operation additionally
// returns a modeled duration derived from a machine description: per-request
// latency (metadata + seek), per-OST bandwidth, striping, sharing between
// concurrent requests, and log-normal variability standing in for the other
// jobs on the shared machine. The paper's evaluation leans on
// precisely these effects: synchronous-write latency growing with scale,
// file-system noise that staging insulates the simulation from (the 0.25 s
// to 7 s histogram-write spread), and the chunked-vs-merged read gap of
// Fig. 11.
package pfs

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"predata/internal/poison"
)

// Config describes the modeled machine.
type Config struct {
	// NumOSTs is the number of object storage targets. Must be >= 1.
	NumOSTs int
	// OSTBandwidth is the sustained bandwidth of one OST in bytes/second.
	OSTBandwidth float64
	// StripeSize is the striping unit in bytes. Must be >= 1.
	StripeSize int64
	// OpLatency is the fixed per-request overhead (metadata round trip,
	// disk seek). Charged once per WriteAt/ReadAt call.
	OpLatency time.Duration
	// VarSigma is the sigma of the log-normal noise multiplier applied to
	// each operation's duration. Zero disables variability.
	VarSigma float64
	// Seed seeds the noise generator.
	Seed int64
}

// DefaultConfig returns a machine description loosely calibrated to the
// Jaguar-era Lustre scratch system: 672 OSTs behind ~60 GB/s aggregate.
func DefaultConfig() Config {
	return Config{
		NumOSTs:      672,
		OSTBandwidth: 90e6, // 90 MB/s per OST
		StripeSize:   1 << 20,
		OpLatency:    10 * time.Millisecond,
		VarSigma:     0.3,
		Seed:         1,
	}
}

// Stats aggregates observed traffic.
type Stats struct {
	BytesWritten int64
	BytesRead    int64
	WriteOps     int64
	ReadOps      int64
	// ModeledWriteTime and ModeledReadTime sum the modeled durations of
	// all operations (which overlap under concurrency; this is total
	// device time, not wall time).
	ModeledWriteTime time.Duration
	ModeledReadTime  time.Duration
}

// maxFreeBytes caps the bytes a FileSystem keeps for reuse: room for two
// dumps of the largest output the benchmark writes (gtc-sort's 64 MiB), so
// a run that retires a dump's files as it creates the next one's recycles
// every group.
const maxFreeBytes = 256 << 20

// ErrDropped is the error of a read or write through a handle whose file
// was removed, or replaced by Create or Import under its name, after the
// handle was opened.
var ErrDropped = errors.New("file was removed or replaced")

// FileSystem is a simulated parallel file system. All methods are safe for
// concurrent use.
type FileSystem struct {
	cfg Config

	mu     sync.Mutex
	files  map[string]*fileData
	rng    *rand.Rand
	active int // in-flight requests (sharers)
	stats  Stats
	// free holds the whole owned buffers of dropped files, oldest first,
	// freeBytes their total length (at most maxFreeBytes).
	free      [][]byte
	freeBytes int
}

// fileData stores a file as a sorted list of non-overlapping, non-empty
// extents; bytes no extent covers read as zeros. A write therefore costs the
// bytes it carries and nothing else: extending a file never touches what the
// file already holds.
type fileData struct {
	mu      sync.Mutex
	extents []extent
	size    int64
	stripes int  // stripe count chosen at create time
	dropped bool // removed or replaced: its buffers may belong to another file
}

type extent struct {
	off  int64
	data []byte
	// whole marks data as a whole buffer handed over by WriteOwned, which
	// goes to the free list when the file is dropped.
	whole bool
}

// from returns the index of the first extent that ends beyond off.
func (fd *fileData) from(off int64) int {
	return sort.Search(len(fd.extents), func(i int) bool {
		e := fd.extents[i]
		return e.off+int64(len(e.data)) > off
	})
}

// gapEnd returns where a gap that starts before extent i ends: at that
// extent's first byte, or at limit when the extents stop short of it.
func (fd *fileData) gapEnd(i int, limit int64) int64 {
	if i < len(fd.extents) && fd.extents[i].off < limit {
		return fd.extents[i].off
	}
	return limit
}

// store lays p over [off, off+len(p)) and extends the file to cover it.
// Bytes that land on a stored extent are copied into it; bytes that land on
// nothing become new extents — pieces of p itself when the caller gave p
// away (owned), copies otherwise.
func (fd *fileData) store(p []byte, off int64, owned bool) {
	end := off + int64(len(p))
	fd.size = max(fd.size, end)
	i := fd.from(off)
	for pos := off; pos < end; i++ {
		if i < len(fd.extents) && fd.extents[i].off <= pos {
			e := fd.extents[i]
			pos += int64(copy(e.data[pos-e.off:], p[pos-off:]))
			continue
		}
		stop := fd.gapEnd(i, end)
		piece := p[pos-off : stop-off]
		if !owned {
			piece = bytes.Clone(piece)
		}
		whole := owned && pos == off && stop == end
		fd.extents = slices.Insert(fd.extents, i, extent{off: pos, data: piece, whole: whole})
		pos = stop
	}
}

// load fills p from [off, off+len(p)), which must lie inside the file.
func (fd *fileData) load(p []byte, off int64) {
	end := off + int64(len(p))
	i := fd.from(off)
	for pos := off; pos < end; {
		if i < len(fd.extents) && fd.extents[i].off <= pos {
			e := fd.extents[i]
			pos += int64(copy(p[pos-off:], e.data[pos-e.off:]))
			i++
			continue
		}
		stop := fd.gapEnd(i, end)
		clear(p[pos-off : stop-off])
		pos = stop
	}
}

// New creates an empty file system with the given machine description.
func New(cfg Config) (*FileSystem, error) {
	if cfg.NumOSTs < 1 {
		return nil, fmt.Errorf("pfs: NumOSTs %d must be >= 1", cfg.NumOSTs)
	}
	if cfg.OSTBandwidth <= 0 {
		return nil, fmt.Errorf("pfs: OSTBandwidth %g must be positive", cfg.OSTBandwidth)
	}
	if cfg.StripeSize < 1 {
		return nil, fmt.Errorf("pfs: StripeSize %d must be >= 1", cfg.StripeSize)
	}
	return &FileSystem{
		cfg:   cfg,
		files: make(map[string]*fileData),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}, nil
}

// Stats returns a snapshot of accumulated traffic counters.
func (fs *FileSystem) Stats() Stats {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.stats
}

// Create creates a file striped over min(stripes, NumOSTs) OSTs. stripes
// <= 0 selects the file-system default (4, matching typical Lustre
// defaults). A file already under the name is dropped, as by Remove.
func (fs *FileSystem) Create(name string, stripes int) (*File, error) {
	if name == "" {
		return nil, fmt.Errorf("pfs: empty file name")
	}
	fd := &fileData{stripes: fs.stripes(stripes)}
	fs.put(name, fd)
	return &File{fs: fs, name: name, fd: fd}, nil
}

// stripes resolves a requested stripe count: the default for <= 0, at most
// NumOSTs.
func (fs *FileSystem) stripes(n int) int {
	if n <= 0 {
		n = 4
	}
	return min(n, fs.cfg.NumOSTs)
}

// put files fd under name and drops the file it replaces, if any.
func (fs *FileSystem) put(name string, fd *fileData) {
	fs.mu.Lock()
	old := fs.files[name]
	fs.files[name] = fd
	fs.mu.Unlock()
	if old != nil {
		fs.drop(old)
	}
}

// drop ends a file that is no longer filed under its name: every handle to
// it fails from now on, and the whole buffers it was handed go to the free
// list, poisoned first in a predata_poison build.
func (fs *FileSystem) drop(fd *fileData) {
	fd.mu.Lock()
	fd.dropped = true
	var whole [][]byte
	for _, e := range fd.extents {
		if e.whole && len(e.data) <= maxFreeBytes {
			whole = append(whole, e.data[:len(e.data):len(e.data)])
		}
	}
	fd.extents = nil
	fd.mu.Unlock()
	for _, b := range whole {
		poison.Fill(b)
	}

	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, b := range whole {
		fs.free = append(fs.free, b)
		fs.freeBytes += len(b)
	}
	fs.trimFree(maxFreeBytes)
}

// trimFree lets the oldest buffers on the free list go until it holds at
// most limit bytes. fs.mu must be held.
func (fs *FileSystem) trimFree(limit int) {
	for fs.freeBytes > limit {
		fs.freeBytes -= len(fs.free[0])
		fs.free = slices.Delete(fs.free, 0, 1)
	}
}

// Reuse takes a buffer of a dropped file off the free list: the shortest
// one of lo to hi bytes, the newest among equals, or nil when there is
// none. The buffer is the caller's and holds whatever its file held (0xA5
// in a predata_poison build).
func (fs *FileSystem) Reuse(lo, hi int) []byte {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	best := -1
	for i, b := range fs.free {
		if len(b) >= lo && len(b) <= hi && (best < 0 || len(b) <= len(fs.free[best])) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	b := fs.free[best]
	fs.freeBytes -= len(b)
	fs.free = slices.Delete(fs.free, best, best+1)
	return b
}

// Open opens an existing file.
func (fs *FileSystem) Open(name string) (*File, error) {
	fs.mu.Lock()
	fd, ok := fs.files[name]
	fs.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("pfs: open %s: no such file", name)
	}
	return &File{fs: fs, name: name, fd: fd}, nil
}

// Remove deletes a file. Its handles fail with ErrDropped from then on,
// and the buffers it was handed through WriteOwned go to the free list
// (Reuse): a view into one of them — a committed bp group's Data, a
// KeepResult array — is valid until its file is removed or replaced.
func (fs *FileSystem) Remove(name string) error {
	fs.mu.Lock()
	fd, ok := fs.files[name]
	delete(fs.files, name)
	fs.mu.Unlock()
	if !ok {
		return fmt.Errorf("pfs: remove %s: no such file", name)
	}
	fs.drop(fd)
	return nil
}

// List returns the names of all files, sorted.
func (fs *FileSystem) List() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	names := make([]string, 0, len(fs.files))
	for n := range fs.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// File is a handle to a stored file.
type File struct {
	fs   *FileSystem
	name string
	fd   *fileData
}

// Name returns the file's name.
func (f *File) Name() string { return f.name }

// Size returns the current file length in bytes.
func (f *File) Size() int64 {
	f.fd.mu.Lock()
	defer f.fd.mu.Unlock()
	return f.fd.size
}

// WriteAt stores a copy of p at offset off, extending the file as needed,
// and returns the modeled duration of the request. p stays the caller's.
func (f *File) WriteAt(p []byte, off int64) (time.Duration, error) {
	return f.writeAt(p, off, false)
}

// WriteOwned is WriteAt for a buffer the caller gives away: where p lands on
// no stored bytes the file keeps p itself instead of a copy, so the caller
// must never write to p again. It may read p until the file is dropped
// (Remove): then a p that landed whole on a hole goes to the free list.
func (f *File) WriteOwned(p []byte, off int64) (time.Duration, error) {
	return f.writeAt(p, off, true)
}

func (f *File) writeAt(p []byte, off int64, owned bool) (time.Duration, error) {
	if off < 0 {
		return 0, fmt.Errorf("pfs: write %s: negative offset %d", f.name, off)
	}
	f.fd.mu.Lock()
	if f.fd.dropped {
		f.fd.mu.Unlock()
		return 0, fmt.Errorf("pfs: write %s: %w", f.name, ErrDropped)
	}
	f.fd.store(p, off, owned)
	stripes := f.fd.stripes
	f.fd.mu.Unlock()

	d := f.fs.chargeOp(int64(len(p)), off, stripes, true)
	return d, nil
}

// Append stores a copy of p at the end of the file and returns (offset,
// duration).
func (f *File) Append(p []byte) (int64, time.Duration, error) {
	f.fd.mu.Lock()
	if f.fd.dropped {
		f.fd.mu.Unlock()
		return 0, 0, fmt.Errorf("pfs: append %s: %w", f.name, ErrDropped)
	}
	off := f.fd.size
	f.fd.store(p, off, false)
	stripes := f.fd.stripes
	f.fd.mu.Unlock()
	d := f.fs.chargeOp(int64(len(p)), off, stripes, true)
	return off, d, nil
}

// ReadAt fills p from offset off and returns the modeled duration.
// Reading past the end of the file is an error.
func (f *File) ReadAt(p []byte, off int64) (time.Duration, error) {
	if off < 0 {
		return 0, fmt.Errorf("pfs: read %s: negative offset %d", f.name, off)
	}
	f.fd.mu.Lock()
	if f.fd.dropped {
		f.fd.mu.Unlock()
		return 0, fmt.Errorf("pfs: read %s: %w", f.name, ErrDropped)
	}
	if off+int64(len(p)) > f.fd.size {
		sz := f.fd.size
		f.fd.mu.Unlock()
		return 0, fmt.Errorf("pfs: read %s: [%d:%d) beyond size %d", f.name, off, off+int64(len(p)), sz)
	}
	f.fd.load(p, off)
	stripes := f.fd.stripes
	f.fd.mu.Unlock()

	d := f.fs.chargeOp(int64(len(p)), off, stripes, false)
	return d, nil
}

// chargeOp computes the modeled duration of one request and updates stats.
//
// Model: the request touches up to `stripes` OSTs (fewer if it spans fewer
// stripe units), giving a peak bandwidth of touched*OSTBandwidth. That
// bandwidth is shared with the other in-flight requests, proportionally. A
// log-normal multiplier adds the shared-machine variability the paper
// observes.
func (fs *FileSystem) chargeOp(size, off int64, stripes int, write bool) time.Duration {
	fs.mu.Lock()
	fs.active++
	sharers := float64(fs.active)
	noise := 1.0
	if fs.cfg.VarSigma > 0 {
		noise = math.Exp(fs.rng.NormFloat64() * fs.cfg.VarSigma)
	}
	fs.mu.Unlock()

	touched := int((off+size-1)/fs.cfg.StripeSize - off/fs.cfg.StripeSize + 1)
	if size == 0 {
		touched = 1
	}
	if touched > stripes {
		touched = stripes
	}
	bw := float64(touched) * fs.cfg.OSTBandwidth
	if sharers > float64(touched) {
		// More sharers than lanes: proportional slowdown.
		bw *= float64(touched) / sharers
	}
	d := fs.cfg.OpLatency + time.Duration(float64(size)/bw*noise*float64(time.Second))

	fs.mu.Lock()
	fs.active--
	if write {
		fs.stats.BytesWritten += size
		fs.stats.WriteOps++
		fs.stats.ModeledWriteTime += d
	} else {
		fs.stats.BytesRead += size
		fs.stats.ReadOps++
		fs.stats.ModeledReadTime += d
	}
	fs.mu.Unlock()
	return d
}
