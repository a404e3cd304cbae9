// Package wal is the staging area's durability layer: a CRC-framed
// write-ahead journal (PDWAL2) that compacts itself behind a
// dump-boundary checkpoint record, so a staging rank survives a process
// crash or a whole-service restart without losing in-flight dumps.
//
// Every record is framed one way, by one writer (writeRecord) and one
// reader (readRecord): a little-endian fixed header (kind, writer,
// timestep, length) and a CRC32-IEEE over those fields and the payload,
// whose length the reader bounds by the bytes left in the file. The journal records fetch
// requests as they are consumed from the fabric mailbox (the pending-map
// state a restart would otherwise forget), dump-boundary commit markers,
// the checkpoint record that opens a compacted journal, and — in the
// streaming service only — ingested payloads. The staging pipeline
// journals its chunks by reference: a request names the writer's region
// and the seal's checksum, and the writer keeps that region until the
// dump's commit is durable, so a restart re-pulls instead of replaying
// bytes from here. A commit record is the durability point: it is
// flushed and fsynced, and on recovery every chunk/request of a
// committed dump is deduplicated away, which is what makes replay
// exactly-once across a restart.
//
// To recovery a torn journal tail is *normal*: the process died
// mid-append. Recover keeps the longest valid prefix and reports Torn
// instead of failing, so replay after a crash at any byte offset yields
// a prefix-consistent state (property-tested). Only a damaged magic —
// the file is not a journal at all — is an error. flowctl's spill and
// pass queues are Logs of chunk records too, read back by Scan, to
// which a torn or damaged record is ErrCorrupt: a spill is lossless or
// loud.
//
// Checkpoints compact the journal in one atomic step: WriteCheckpoint
// writes a fresh file — the magic, a checkpoint record saying every dump
// below NextDump is committed, and the records it does not cover —
// fsyncs it and renames it over the journal. A crash leaves either the
// old journal or the compacted one, each whole; a leftover
// journal.wal.tmp is never read and the next compaction overwrites it.
// Recovery drops every record the checkpoint record covers.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

const (
	journalMagic = "PDWAL2\n\x00"
	journalName  = "journal.wal"

	// header: kind uint8 | writer int64 | timestep int64 | length uint32 | crc32 uint32 (of all before it, then the payload)
	headerSize = 1 + 8 + 8 + 4 + 4
)

// ErrCorrupt marks a file that is not a journal at all (bad magic)
// and — to Scan only — a torn or bit-flipped record. To recovery a
// damaged record is a torn tail, not an error: it truncates recovery to
// the valid prefix.
var ErrCorrupt = errors.New("wal: corrupt")

// Kind classifies a journal record.
type Kind uint8

const (
	// KindChunk is a payload journaled by value on arrival. Only the
	// streaming service writes them (its ingests, through AppendChunk);
	// the staging pipeline journals chunks by reference, in requests.
	KindChunk Kind = 1
	// KindRequest is a fetch request consumed from the fabric mailbox,
	// serialized by the caller (the pending-map state).
	KindRequest Kind = 2
	// KindCommit marks a dump fully reduced; it carries no payload and
	// is fsynced. Recovery dedupes everything belonging to a committed
	// dump.
	KindCommit Kind = 3
	// KindCheckpoint is the first record of a compacted journal: every
	// dump below its Timestep (the checkpoint's NextDump) is committed.
	// It carries no payload.
	KindCheckpoint Kind = 4
)

// Record is one journal entry.
type Record struct {
	Kind     Kind
	Writer   int
	Timestep int64
	Payload  []byte
}

// Log is an append-only journal handle. All methods are safe for
// concurrent use; Close is idempotent.
type Log struct {
	mu      sync.Mutex
	dir     string
	path    string
	f       *os.File
	w       *bufio.Writer
	records int64
	bytes   int64
	wall    time.Duration
	closed  bool

	// size is the journal file's length once everything buffered is
	// flushed; uncached is the page-aligned prefix already durable and
	// dropped from the page cache; newest is the highest Timestep of any
	// record in the file but its checkpoint record (noRecord when it
	// holds none). Open derives all three from its scan, so they describe
	// the file, not just this handle's appends.
	size     int64
	uncached int64
	newest   int64
}

// noRecord is Log.newest for a journal that holds no record.
const noRecord = math.MinInt64

var pageSize = int64(os.Getpagesize())

// uncache drops the journal's durable pages from the page cache. Nothing
// reads them back short of a restart, and left cached they are released
// in one journal-sized lump when a checkpoint replaces the file — memory
// that may have to be faulted in afresh under the next dumps' appends
// (DESIGN.md §14). Call after fsync: only clean pages are dropped. The
// last, partial page stays so that the next append does not read it back.
func (l *Log) uncache() {
	if end := l.size &^ (pageSize - 1); end > l.uncached {
		dropCache(l.f, l.uncached, end-l.uncached)
		l.uncached = end
	}
}

// Open creates or re-opens the journal in dir (created if missing).
// An existing journal is truncated to its valid prefix first — a torn
// tail from a previous crash must not precede fresh appends, or the
// scanner would stop at the tear and lose them.
func Open(dir string) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", dir, err)
	}
	path := filepath.Join(dir, journalName)
	newest := int64(noRecord)
	_, validLen, _, scanErr := scanJournal(path, func(rec Record) error {
		if rec.Kind != KindCheckpoint {
			newest = max(newest, rec.Timestep)
		}
		return nil
	})
	fresh := false
	switch {
	case errors.Is(scanErr, os.ErrNotExist):
		fresh = true
	case scanErr != nil:
		return nil, scanErr
	case validLen < int64(len(journalMagic)):
		// The crash hit before the magic landed: start the file over.
		fresh = true
		if err := os.Truncate(path, 0); err != nil {
			return nil, fmt.Errorf("wal: reset truncated journal %s: %w", path, err)
		}
	default:
		if err := os.Truncate(path, validLen); err != nil {
			return nil, fmt.Errorf("wal: truncate torn tail of %s: %w", path, err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	if fresh {
		if _, err := f.Write([]byte(journalMagic)); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: write magic: %w", err)
		}
		validLen = int64(len(journalMagic))
	}
	return &Log{dir: dir, path: path, f: f, w: bufio.NewWriter(f), size: validLen, newest: newest}, nil
}

// Dir returns the directory the journal lives in.
func (l *Log) Dir() string { return l.dir }

func (l *Log) append(rec Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	start := time.Now()
	if l.closed {
		return fmt.Errorf("wal: append to closed journal %s", l.path)
	}
	if err := writeRecord(l.w, rec); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.records++
	l.bytes += int64(headerSize + len(rec.Payload))
	l.size += int64(headerSize + len(rec.Payload))
	l.newest = max(l.newest, rec.Timestep)
	l.wall += time.Since(start)
	return nil
}

// AppendChunk journals one payload by value (a KindChunk record).
func (l *Log) AppendChunk(writer int, timestep int64, payload []byte) error {
	return l.append(Record{Kind: KindChunk, Writer: writer, Timestep: timestep, Payload: payload})
}

// AppendRequest journals one consumed fetch request (caller-serialized).
func (l *Log) AppendRequest(writer int, timestep int64, blob []byte) error {
	return l.append(Record{Kind: KindRequest, Writer: writer, Timestep: timestep, Payload: blob})
}

// AppendCommit journals the dump-boundary commit marker and makes the
// journal durable through it (flush + fsync) — the point after which a
// restart must not re-reduce the dump.
func (l *Log) AppendCommit(timestep int64) error {
	if err := l.append(Record{Kind: KindCommit, Writer: -1, Timestep: timestep}); err != nil {
		return err
	}
	return l.Sync()
}

// Sync flushes buffered appends and fsyncs the journal.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	start := time.Now()
	if l.closed {
		return fmt.Errorf("wal: sync of closed journal %s", l.path)
	}
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("wal: flush: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.uncache()
	l.wall += time.Since(start)
	return nil
}

// Close flushes and closes the journal without an fsync. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	ferr := l.w.Flush()
	cerr := l.f.Close()
	if ferr != nil {
		return fmt.Errorf("wal: close: %w", ferr)
	}
	if cerr != nil {
		return fmt.Errorf("wal: close: %w", cerr)
	}
	return nil
}

// Records returns the number of records appended through this handle.
func (l *Log) Records() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records
}

// Bytes returns the framed bytes appended through this handle.
func (l *Log) Bytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytes
}

// Wall returns the cumulative wall time spent appending, syncing and
// checkpointing — the journal-overhead figure the restart experiment
// reports. The clock runs under the handle mutex, so it measures the
// framing, CRC and device work itself, not callers queueing on the
// handle (concurrent pull workers overlap that wait with real work).
func (l *Log) Wall() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.wall
}

// Checkpoint is the compact dump-boundary state: every dump below
// NextDump is fully reduced and committed.
type Checkpoint struct {
	NextDump int64
}

// WriteCheckpoint compacts the journal behind c: it writes a fresh file
// holding c's checkpoint record and the records c does not cover (those
// with Timestep >= NextDump; an older checkpoint record is never carried
// forward), fsyncs it and renames it over the journal, returning how
// many records it kept besides the checkpoint. The new file's fsync
// before the rename makes every kept record durable, so the old journal
// needs none; a crash on either side of the rename leaves one whole
// journal.
func (l *Log) WriteCheckpoint(c Checkpoint) (kept int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	start := time.Now()
	if l.closed {
		return 0, fmt.Errorf("wal: checkpoint on closed journal %s", l.path)
	}
	if err := l.w.Flush(); err != nil {
		return 0, fmt.Errorf("wal: checkpoint flush: %w", err)
	}
	// When the file holds no record the checkpoint leaves uncovered (the
	// usual case: a checkpoint follows its dump's commit) the journal is
	// not read back — the last commit dropped its pages from the cache.
	recs := []Record{{Kind: KindCheckpoint, Writer: -1, Timestep: c.NextDump}}
	if l.newest >= c.NextDump {
		if _, _, _, err := scanJournal(l.path, func(rec Record) error {
			if rec.Kind != KindCheckpoint && rec.Timestep >= c.NextDump {
				recs = append(recs, rec)
			}
			return nil
		}); err != nil {
			return 0, err
		}
	}
	tmp := l.path + ".tmp"
	if err := writeJournal(tmp, recs); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp, l.path); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("wal: checkpoint rename: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		return 0, err
	}
	// Reattach the append handle to the compacted file.
	if err := l.f.Close(); err != nil {
		return 0, fmt.Errorf("wal: checkpoint: %w", err)
	}
	nf, err := os.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, fmt.Errorf("wal: checkpoint reopen: %w", err)
	}
	l.f = nf
	l.w.Reset(nf)
	l.size, l.uncached, l.newest = int64(len(journalMagic)+headerSize), 0, noRecord
	for _, rec := range recs[1:] {
		l.size += int64(headerSize + len(rec.Payload))
		l.newest = max(l.newest, rec.Timestep)
	}
	l.wall += time.Since(start)
	return len(recs) - 1, nil
}

// writeJournal writes a fresh journal file holding recs, fsynced.
func writeJournal(path string, recs []Record) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("wal: rewrite journal: %w", err)
	}
	w := bufio.NewWriter(f)
	werr := func() error {
		if _, err := w.WriteString(journalMagic); err != nil {
			return err
		}
		for _, rec := range recs {
			if err := writeRecord(w, rec); err != nil {
				return err
			}
		}
		if err := w.Flush(); err != nil {
			return err
		}
		return f.Sync()
	}()
	cerr := f.Close()
	if werr != nil || cerr != nil {
		os.Remove(path)
		return fmt.Errorf("wal: rewrite journal: %w", errors.Join(werr, cerr))
	}
	return nil
}

// syncDir fsyncs a directory so a rename inside it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: sync dir %s: %w", dir, err)
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil || cerr != nil {
		return fmt.Errorf("wal: sync dir %s: %w", dir, errors.Join(serr, cerr))
	}
	return nil
}

// writeRecord frames rec onto w: its header, then its payload. It is
// the only writer of a record header. It refuses only a payload the
// 32-bit length field cannot express, before writing anything.
func writeRecord(w io.Writer, rec Record) error {
	if uint64(len(rec.Payload)) > math.MaxUint32 {
		return fmt.Errorf("a %d-byte payload overflows the 32-bit length field", len(rec.Payload))
	}
	var hdr [headerSize]byte
	hdr[0] = byte(rec.Kind)
	binary.LittleEndian.PutUint64(hdr[1:9], uint64(rec.Writer))
	binary.LittleEndian.PutUint64(hdr[9:17], uint64(rec.Timestep))
	binary.LittleEndian.PutUint32(hdr[17:21], uint32(len(rec.Payload)))
	binary.LittleEndian.PutUint32(hdr[21:25], recordSum(hdr, rec.Payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(rec.Payload)
	return err
}

// recordSum is a record's checksum: its header fields, then its payload.
func recordSum(hdr [headerSize]byte, payload []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(hdr[:21]), crc32.IEEETable, payload)
}

// readRecord reads the next record from r, which holds the last left
// bytes of its file. It is the only parser of a record header. It
// reports false at the end of the file and at a torn or damaged record:
// a short header, a length running past the end of the file, a short
// payload or a checksum mismatch. Bounding the length by left is what
// keeps a damaged length field from allocating more than the file holds.
func readRecord(r io.Reader, left int64) (Record, bool) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil || left < headerSize {
		return Record{}, false
	}
	length := int64(binary.LittleEndian.Uint32(hdr[17:21]))
	if length > left-headerSize {
		return Record{}, false
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil || recordSum(hdr, payload) != binary.LittleEndian.Uint32(hdr[21:25]) {
		return Record{}, false
	}
	return Record{
		Kind:     Kind(hdr[0]),
		Writer:   int(int64(binary.LittleEndian.Uint64(hdr[1:9]))),
		Timestep: int64(binary.LittleEndian.Uint64(hdr[9:17])),
		Payload:  payload,
	}, true
}

// scanJournal reads the journal's valid prefix, calling fn for each
// well-formed, CRC-verified record and stopping at fn's first error. It
// returns the record count, the byte length of the valid prefix, and
// whether trailing bytes were discarded (torn tail — normal after a
// crash). A missing file returns os.ErrNotExist; a damaged magic returns
// ErrCorrupt. An entirely empty or magic-truncated file counts as an
// empty journal with a torn tail, not corruption: the crash hit before
// the magic landed.
func scanJournal(path string, fn func(Record) error) (records int64, validLen int64, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, false, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, 0, false, fmt.Errorf("wal: %w", err)
	}
	r := bufio.NewReader(f)
	magic := make([]byte, len(journalMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return 0, 0, true, nil
	}
	if string(magic) != journalMagic {
		return 0, 0, false, fmt.Errorf("wal: %s has bad magic %q: %w", path, magic, ErrCorrupt)
	}
	validLen = int64(len(journalMagic))
	for {
		// The end of the file exactly at a record boundary is a clean
		// tail; anything else is torn.
		rec, ok := readRecord(r, fi.Size()-validLen)
		if !ok || rec.Kind < KindChunk || rec.Kind > KindCheckpoint {
			return records, validLen, validLen != fi.Size(), nil
		}
		if err := fn(rec); err != nil {
			return records, validLen, false, err
		}
		records++
		validLen += headerSize + int64(len(rec.Payload))
	}
}

// Scan calls fn for each record of the journal in dir, in append order,
// stopping at fn's first error. Unlike Recover it reads strictly: a
// torn or damaged record, or an empty file, fails the scan with an
// error wrapping ErrCorrupt once the records before it have been
// delivered; a missing journal is os.ErrNotExist. Each record's payload
// is a fresh buffer that fn may keep.
func Scan(dir string, fn func(Record) error) error {
	path := filepath.Join(dir, journalName)
	_, validLen, torn, err := scanJournal(path, fn)
	if err == nil && torn {
		err = fmt.Errorf("wal: %s is damaged after byte %d: %w", path, validLen, ErrCorrupt)
	}
	return err
}

// State is what recovery hands the restarted server: the journal's
// uncommitted chunk/request records in append order — everything needed
// to rebuild pending state and replay the in-flight dump without
// re-reducing a committed one.
type State struct {
	Chunks   []Record
	Requests []Record
	// Torn reports a discarded journal tail (crash mid-append).
	Torn bool
	// Records counts valid journal records scanned.
	Records int64
}

// Recover replays the journal's valid prefix from dir, dropping every
// record of a committed dump: one the checkpoint record covers or one
// with a commit record. A missing directory or journal is an empty
// state, not an error: a rank restarting with no durable history simply
// starts from dump 0.
func Recover(dir string) (*State, error) {
	st := &State{}
	next := int64(math.MinInt64) // every dump below it is covered by a checkpoint
	committed := make(map[int64]bool)
	drop := func(covered func(Record) bool) {
		st.Chunks = slices.DeleteFunc(st.Chunks, covered)
		st.Requests = slices.DeleteFunc(st.Requests, covered)
	}
	records, _, torn, err := scanJournal(filepath.Join(dir, journalName), func(rec Record) error {
		switch {
		case rec.Kind == KindCheckpoint:
			next = max(next, rec.Timestep)
			drop(func(r Record) bool { return r.Timestep < next })
		case rec.Timestep < next || committed[rec.Timestep]:
			// Already committed: nothing of the dump is replayed.
		case rec.Kind == KindCommit:
			committed[rec.Timestep] = true
			drop(func(r Record) bool { return r.Timestep == rec.Timestep })
		case rec.Kind == KindChunk:
			st.Chunks = append(st.Chunks, rec)
		case rec.Kind == KindRequest:
			st.Requests = append(st.Requests, rec)
		}
		return nil
	})
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return st, nil
		}
		return nil, err
	}
	st.Records = records
	st.Torn = torn
	return st, nil
}
