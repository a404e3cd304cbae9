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
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"
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

// FileSystem is a simulated parallel file system. All methods are safe for
// concurrent use.
type FileSystem struct {
	cfg Config

	mu     sync.Mutex
	files  map[string]*fileData
	rng    *rand.Rand
	active int // in-flight requests (sharers)
	stats  Stats
}

// fileData stores a file as a sorted list of non-overlapping, non-empty
// extents; bytes no extent covers read as zeros. A write therefore costs the
// bytes it carries and nothing else: extending a file never touches what the
// file already holds.
type fileData struct {
	mu      sync.Mutex
	extents []extent
	size    int64
	stripes int // stripe count chosen at create time
}

type extent struct {
	off  int64
	data []byte
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
		fd.extents = slices.Insert(fd.extents, i, extent{off: pos, data: piece})
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

// Create creates (or truncates) a file striped over min(stripes, NumOSTs)
// OSTs. stripes <= 0 selects the file-system default (4, matching typical
// Lustre defaults).
func (fs *FileSystem) Create(name string, stripes int) (*File, error) {
	if name == "" {
		return nil, fmt.Errorf("pfs: empty file name")
	}
	if stripes <= 0 {
		stripes = 4
	}
	if stripes > fs.cfg.NumOSTs {
		stripes = fs.cfg.NumOSTs
	}
	fd := &fileData{stripes: stripes}
	fs.mu.Lock()
	fs.files[name] = fd
	fs.mu.Unlock()
	return &File{fs: fs, name: name, fd: fd}, nil
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

// Remove deletes a file.
func (fs *FileSystem) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[name]; !ok {
		return fmt.Errorf("pfs: remove %s: no such file", name)
	}
	delete(fs.files, name)
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
// must never write to p again (it may still read it).
func (f *File) WriteOwned(p []byte, off int64) (time.Duration, error) {
	return f.writeAt(p, off, true)
}

func (f *File) writeAt(p []byte, off int64, owned bool) (time.Duration, error) {
	if off < 0 {
		return 0, fmt.Errorf("pfs: write %s: negative offset %d", f.name, off)
	}
	f.fd.mu.Lock()
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
