package wal

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func mustOpen(t *testing.T, dir string) *Log {
	t.Helper()
	l, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

// startsWithCheckpoint fails unless the journal in dir opens with the
// checkpoint record for next and holds n records in all.
func startsWithCheckpoint(t *testing.T, dir string, next int64, n int) {
	t.Helper()
	var recs []Record
	if err := Scan(dir, func(rec Record) error { recs = append(recs, rec); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(recs) != n || recs[0].Kind != KindCheckpoint || recs[0].Timestep != next {
		t.Fatalf("journal holds %+v, want the checkpoint record for dump %d and %d records in all", recs, next, n)
	}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir)
	if err := l.AppendRequest(3, 0, []byte("req-3")); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendChunk(3, 0, []byte("chunk-3-bytes")); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendChunk(4, 1, []byte("future-chunk")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Torn {
		t.Fatal("clean journal reported torn")
	}
	if st.Records != 3 || len(st.Chunks) != 2 || len(st.Requests) != 1 {
		t.Fatalf("recovered records=%d chunks=%d requests=%d", st.Records, len(st.Chunks), len(st.Requests))
	}
	if got := st.Chunks[0]; got.Writer != 3 || got.Timestep != 0 || !bytes.Equal(got.Payload, []byte("chunk-3-bytes")) {
		t.Fatalf("chunk 0 round-trip: %+v", got)
	}
}

func TestCommitDedupes(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir)
	for _, ts := range []int64{0, 1} {
		if err := l.AppendRequest(1, ts, []byte("r")); err != nil {
			t.Fatal(err)
		}
		if err := l.AppendChunk(1, ts, []byte("c")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.AppendCommit(0); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Chunks) != 1 || st.Chunks[0].Timestep != 1 {
		t.Fatalf("commit did not dedupe dump 0 chunks: %+v", st.Chunks)
	}
	if len(st.Requests) != 1 || st.Requests[0].Timestep != 1 {
		t.Fatalf("commit did not dedupe dump 0 requests: %+v", st.Requests)
	}
}

func TestRecoverMissingDirIsEmpty(t *testing.T) {
	st, err := Recover(filepath.Join(t.TempDir(), "never-created"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Torn || st.Records != 0 || len(st.Chunks) != 0 || len(st.Requests) != 0 {
		t.Fatalf("missing dir not empty: %+v", st)
	}
}

func TestCheckpointTruncatesAndCarriesForward(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir)
	// Dumps 0 and 1 committed; one uncommitted future request must
	// survive truncation.
	for _, ts := range []int64{0, 1} {
		if err := l.AppendChunk(0, ts, []byte("c")); err != nil {
			t.Fatal(err)
		}
		if err := l.AppendCommit(ts); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.AppendRequest(5, 3, []byte("early-request")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.WriteCheckpoint(Checkpoint{NextDump: 2}); err != nil {
		t.Fatal(err)
	}
	// Appends after the checkpoint land in the rewritten journal.
	if err := l.AppendChunk(6, 2, []byte("post-ckpt")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	startsWithCheckpoint(t, dir, 2, 3)
	if len(st.Requests) != 1 || st.Requests[0].Timestep != 3 {
		t.Fatalf("future request did not survive truncation: %+v", st.Requests)
	}
	if len(st.Chunks) != 1 || !bytes.Equal(st.Chunks[0].Payload, []byte("post-ckpt")) {
		t.Fatalf("post-checkpoint append lost: %+v", st.Chunks)
	}
}

func TestRecoverDropsRecordsCoveredByCheckpoint(t *testing.T) {
	// A checkpoint record followed by stale records it covers — which
	// WriteCheckpoint never writes — and one record it does not: recovery
	// drops the covered ones whatever their kind.
	dir := t.TempDir()
	if err := writeJournal(filepath.Join(dir, journalName), []Record{
		{Kind: KindCheckpoint, Writer: -1, Timestep: 2},
		{Kind: KindRequest, Writer: 0, Timestep: 1, Payload: []byte("covered-request")},
		{Kind: KindChunk, Writer: 0, Timestep: 0, Payload: []byte("covered")},
		{Kind: KindChunk, Writer: 1, Timestep: 2, Payload: []byte("tail")},
	}); err != nil {
		t.Fatal(err)
	}
	st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Torn || st.Records != 4 || len(st.Requests) != 0 || len(st.Chunks) != 1 || st.Chunks[0].Timestep != 2 {
		t.Fatalf("covered records not dropped: %+v", st)
	}
}

func TestTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir)
	if err := l.AppendChunk(0, 0, []byte("whole")); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendChunk(1, 0, []byte("gets-torn")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, journalName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Torn {
		t.Fatal("torn tail not reported")
	}
	if len(st.Chunks) != 1 || !bytes.Equal(st.Chunks[0].Payload, []byte("whole")) {
		t.Fatalf("valid prefix wrong: %+v", st.Chunks)
	}
	// Re-opening truncates the tear; fresh appends must then recover.
	l2 := mustOpen(t, dir)
	if err := l2.AppendChunk(2, 0, []byte("after-tear")); err != nil {
		t.Fatal(err)
	}
	if err := l2.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Torn || len(st.Chunks) != 2 {
		t.Fatalf("post-tear append lost: torn=%v chunks=%+v", st.Torn, st.Chunks)
	}
}

func TestBadMagicRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, journalName), []byte("NOTAWAL1 trailing bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open accepted a non-journal file")
	}
}

// TestLargeChunkRecovers appends a 65 MiB chunk: a record's only limit
// is its 32-bit length field, and recovery reads it back whole.
func TestLargeChunkRecovers(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir)
	big := make([]byte, 65<<20)
	for i := range big {
		big[i] = byte(i * 7)
	}
	if err := l.AppendChunk(2, 9, big); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Torn || len(st.Chunks) != 1 || !bytes.Equal(st.Chunks[0].Payload, big) {
		t.Fatalf("65 MiB chunk did not round-trip: torn=%v chunks=%d", st.Torn, len(st.Chunks))
	}
}

// TestGoldenBytes pins the bytes of a journal holding one record of each
// appended kind and of the journal a checkpoint compacts it to, and
// recovers the pinned bytes: journals written by any version of the
// PDWAL2 codec must still read back.
func TestGoldenBytes(t *testing.T) {
	const (
		journal = "504457414c320a00" +
			"010300000000000000070000000000000005000000c1113d44" + "6368756e6b" +
			"02feffffffffffffff080000000000000002000000a7bca37a" + "01fe" +
			"03ffffffffffffffff0700000000000000000000003f7eecad"
		compacted = "504457414c320a00" +
			"04ffffffffffffffff08000000000000000000000016679fb6" +
			"02feffffffffffffff080000000000000002000000a7bca37a" + "01fe"
	)
	dir := t.TempDir()
	l := mustOpen(t, dir)
	if err := l.AppendChunk(3, 7, []byte("chunk")); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendRequest(-2, 8, []byte{0x01, 0xfe}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendCommit(7); err != nil {
		t.Fatal(err)
	}
	golden := func(name, want string) {
		t.Helper()
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if hex.EncodeToString(got) != want {
			t.Fatalf("%s bytes\n got %x\nwant %s", name, got, want)
		}
	}
	golden(journalName, journal)
	if kept, err := l.WriteCheckpoint(Checkpoint{NextDump: 8}); err != nil || kept != 1 {
		t.Fatalf("checkpoint kept %d, err %v", kept, err)
	}
	golden(journalName, compacted)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// The pinned bytes recover to the same state: dump 7 committed, the
	// request for dump 8 pending.
	for name, h := range map[string]string{"journal": journal, "compacted": compacted} {
		rdir := t.TempDir()
		b, _ := hex.DecodeString(h)
		if err := os.WriteFile(filepath.Join(rdir, journalName), b, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Recover(rdir)
		if err != nil {
			t.Fatal(err)
		}
		if st.Torn || len(st.Chunks) != 0 || len(st.Requests) != 1 {
			t.Fatalf("golden %s: torn=%v chunks=%d requests=%d", name, st.Torn, len(st.Chunks), len(st.Requests))
		}
		if r := st.Requests[0]; r.Writer != -2 || r.Timestep != 8 || !bytes.Equal(r.Payload, []byte{0x01, 0xfe}) {
			t.Fatalf("golden request: %+v", r)
		}
	}
}

// TestHeaderBitFlipTearsRecord: a record's checksum covers its header, so
// a commit of dump 4 whose timestep has bit 0 flipped — a valid-looking
// commit of dump 5 — is a torn tail, and dump 5's request survives. A
// PDWAL1 journal, whose checksum covered the payload only, is refused.
func TestHeaderBitFlipTearsRecord(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir)
	if err := l.AppendRequest(0, 5, []byte("req")); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendCommit(4); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, journalName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	commit := len(journalMagic) + headerSize + len("req")
	b[commit+9] ^= 0x01 // the commit's timestep, 4 → 5
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Torn || st.Records != 1 || len(st.Requests) != 1 || st.Requests[0].Timestep != 5 {
		t.Fatalf("torn=%v records=%d requests=%+v, want a torn tail after dump 5's request", st.Torn, st.Records, st.Requests)
	}

	copy(b, "PDWAL1\n\x00")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Recover of a PDWAL1 journal: %v, want ErrCorrupt", err)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendCommit(0); err == nil {
		t.Fatal("append after Close succeeded")
	}
	if err := l.Sync(); err == nil {
		t.Fatal("sync after Close succeeded")
	}
	if _, err := l.WriteCheckpoint(Checkpoint{}); err == nil {
		t.Fatal("checkpoint after Close succeeded")
	}
}

// TestPrefixConsistencyAtEveryOffset is the crash-replay property test:
// truncating the journal at EVERY byte offset must recover without
// error to exactly the state the surviving whole records describe —
// never a record the full journal does not hold, never a gap. The
// journal is a compacted one, so it opens with a checkpoint record and
// carries a request forward past it.
func TestPrefixConsistencyAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir)
	type step struct {
		kind Kind
		ts   int64
	}
	var full []step
	for ts := int64(0); ts < 4; ts++ {
		for w := 0; w < 2; w++ {
			if err := l.AppendRequest(w, ts, []byte(fmt.Sprintf("req-%d-%d", w, ts))); err != nil {
				t.Fatal(err)
			}
			full = append(full, step{KindRequest, ts})
			if err := l.AppendChunk(w, ts, []byte(fmt.Sprintf("chunk-%d-%d", w, ts))); err != nil {
				t.Fatal(err)
			}
			full = append(full, step{KindChunk, ts})
		}
		if ts == 0 {
			// An early request for dump 2, carried across the checkpoint.
			if err := l.AppendRequest(9, 2, []byte("early")); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.AppendCommit(ts); err != nil {
			t.Fatal(err)
		}
		full = append(full, step{KindCommit, ts})
		if ts == 0 {
			if kept, err := l.WriteCheckpoint(Checkpoint{NextDump: 1}); err != nil || kept != 1 {
				t.Fatalf("checkpoint kept %d, err %v", kept, err)
			}
			full = []step{{KindCheckpoint, 1}, {KindRequest, 2}}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, journalName)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	crash := filepath.Join(t.TempDir(), "crash")
	if err := os.MkdirAll(crash, 0o755); err != nil {
		t.Fatal(err)
	}
	cpath := filepath.Join(crash, journalName)
	for off := 0; off <= len(whole); off++ {
		if err := os.WriteFile(cpath, whole[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Recover(crash)
		if err != nil {
			t.Fatalf("offset %d: Recover: %v", off, err)
		}
		// The scanner must keep exactly the whole records the offset
		// preserved — the longest valid prefix, nothing more or less.
		replayed := min(len(full), replayableRecords(whole, off))
		if int(st.Records) != replayed {
			t.Fatalf("offset %d: recovered %d records, prefix holds %d", off, st.Records, replayed)
		}
		// Recovery keeps exactly the prefix's chunks and requests of
		// dumps neither its checkpoint nor its commits cover.
		floor, commits := int64(0), map[int64]bool{}
		for _, s := range full[:replayed] {
			switch s.kind {
			case KindCheckpoint:
				floor = s.ts
			case KindCommit:
				commits[s.ts] = true
			}
		}
		committed := func(ts int64) bool { return ts < floor || commits[ts] }
		want := map[Kind]int{}
		for _, s := range full[:replayed] {
			if !committed(s.ts) {
				want[s.kind]++
			}
		}
		if len(st.Chunks) != want[KindChunk] || len(st.Requests) != want[KindRequest] {
			t.Fatalf("offset %d: recovered %d chunks and %d requests, the prefix leaves %d and %d",
				off, len(st.Chunks), len(st.Requests), want[KindChunk], want[KindRequest])
		}
		for _, r := range append(append([]Record(nil), st.Chunks...), st.Requests...) {
			if committed(r.Timestep) {
				t.Fatalf("offset %d: record for committed dump %d survived", off, r.Timestep)
			}
		}
	}
}

// replayableRecords counts whole records inside the first off bytes.
func replayableRecords(whole []byte, off int) int {
	pos := len(journalMagic)
	if off < pos {
		return 0
	}
	n := 0
	for {
		if pos+headerSize > off {
			return n
		}
		length := int(uint32(whole[pos+17]) | uint32(whole[pos+18])<<8 | uint32(whole[pos+19])<<16 | uint32(whole[pos+20])<<24)
		if pos+headerSize+length > off {
			return n
		}
		pos += headerSize + length
		n++
	}
}

// journalState checks the handle's picture of its file against the file:
// size is what Stat reports once synced, and the uncached prefix ends on
// the last page boundary inside it.
func journalState(t *testing.T, l *Log, when string) {
	t.Helper()
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(l.Dir(), journalName))
	if err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.size != fi.Size() {
		t.Fatalf("%s: handle thinks the journal is %d bytes, the file is %d", when, l.size, fi.Size())
	}
	if want := fi.Size() &^ (pageSize - 1); l.uncached != want {
		t.Fatalf("%s: uncached prefix %d, want %d (file %d bytes)", when, l.uncached, want, fi.Size())
	}
}

func TestHandleTracksJournalFile(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir)
	journalState(t, l, "fresh")
	big := make([]byte, 3*int(pageSize)+17)
	for ts := int64(0); ts < 3; ts++ {
		if err := l.AppendChunk(0, ts, big); err != nil {
			t.Fatal(err)
		}
		if err := l.AppendCommit(ts); err != nil {
			t.Fatal(err)
		}
		journalState(t, l, fmt.Sprintf("after dump %d", ts))
	}
	// A checkpoint that carries a record forward, then one that does not.
	if err := l.AppendRequest(1, 5, []byte("early")); err != nil {
		t.Fatal(err)
	}
	if kept, err := l.WriteCheckpoint(Checkpoint{NextDump: 3}); err != nil || kept != 1 {
		t.Fatalf("checkpoint 3: kept %d, err %v", kept, err)
	}
	journalState(t, l, "after carrying checkpoint")
	if kept, err := l.WriteCheckpoint(Checkpoint{NextDump: 6}); err != nil || kept != 0 {
		t.Fatalf("checkpoint 6: kept %d, err %v", kept, err)
	}
	journalState(t, l, "after emptying checkpoint")
	if err := l.AppendChunk(0, 6, big); err != nil {
		t.Fatal(err)
	}
	journalState(t, l, "after post-checkpoint append")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// A torn tail is cut off on re-open; the handle starts from the cut.
	path := filepath.Join(dir, journalName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(b, "torn"...), 0o644); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, dir)
	defer l2.Close()
	journalState(t, l2, "re-opened over a torn tail")
	if l2.newest != 6 {
		t.Fatalf("re-opened handle's newest record is dump %d, want 6", l2.newest)
	}
}

// TestCheckpointKeepsCarryingForward pins the bookkeeping that lets a
// checkpoint skip reading the journal back: a record carried across one
// checkpoint is still known to the handle at the next, so it is carried
// again rather than dropped unread.
func TestCheckpointKeepsCarryingForward(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir)
	if err := l.AppendChunk(0, 0, []byte("c0")); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendCommit(0); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendRequest(7, 4, []byte("far-future")); err != nil {
		t.Fatal(err)
	}
	for next := int64(1); next <= 4; next++ {
		kept, err := l.WriteCheckpoint(Checkpoint{NextDump: next})
		if err != nil {
			t.Fatal(err)
		}
		if kept != 1 {
			t.Fatalf("checkpoint at %d kept %d records, want the one request for dump 4", next, kept)
		}
	}
	if kept, err := l.WriteCheckpoint(Checkpoint{NextDump: 5}); err != nil || kept != 0 {
		t.Fatalf("checkpoint past the request: kept %d, err %v", kept, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	startsWithCheckpoint(t, dir, 5, 1)
}

// TestEmptyingCheckpointDoesNotReadJournal is the allocation tripwire for
// the usual checkpoint — every record is covered — which used to read the
// whole journal back, one buffer per record, only to keep none of it.
func TestEmptyingCheckpointDoesNotReadJournal(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir)
	defer l.Close()
	chunk := make([]byte, 1<<20)
	for ts := int64(0); ts < 4; ts++ {
		for w := 0; w < 4; w++ {
			if err := l.AppendChunk(w, ts, chunk); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.AppendCommit(ts); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	kept, err := l.WriteCheckpoint(Checkpoint{NextDump: 4})
	runtime.ReadMemStats(&after)
	if err != nil || kept != 0 {
		t.Fatalf("kept %d, err %v", kept, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("a checkpoint that keeps nothing allocated %d bytes over a %d-byte journal", got, 16*len(chunk))
	}
}

// TestLeftoverTmpIgnored models a crash during compaction, before the
// rename: any prefix of the compacted file lies beside the old journal.
// Open and Recover read only the old journal, and the next compaction
// overwrites the leftover.
func TestLeftoverTmpIgnored(t *testing.T) {
	build := func(dir string) *Log {
		l := mustOpen(t, dir)
		for ts := int64(0); ts < 2; ts++ {
			if err := l.AppendRequest(1, ts, []byte("r")); err != nil {
				t.Fatal(err)
			}
			if err := l.AppendCommit(ts); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.AppendRequest(1, 2, []byte("pending")); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		return l
	}
	ref := t.TempDir()
	l := build(ref)
	if _, err := l.WriteCheckpoint(Checkpoint{NextDump: 2}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	compacted, err := os.ReadFile(filepath.Join(ref, journalName))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(compacted); cut++ {
		dir := t.TempDir()
		if err := build(dir).Close(); err != nil {
			t.Fatal(err)
		}
		old, err := os.ReadFile(filepath.Join(dir, journalName))
		if err != nil {
			t.Fatal(err)
		}
		tmp := filepath.Join(dir, journalName+".tmp")
		if err := os.WriteFile(tmp, compacted[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Recover(dir)
		if err != nil || st.Torn || st.Records != 5 || len(st.Requests) != 1 || st.Requests[0].Timestep != 2 {
			t.Fatalf("cut %d: recovered %+v, err %v; want the old journal's state", cut, st, err)
		}
		l := mustOpen(t, dir)
		if got, err := os.ReadFile(filepath.Join(dir, journalName)); err != nil || !bytes.Equal(got, old) {
			t.Fatalf("cut %d: Open changed the old journal (err %v)", cut, err)
		}
		if kept, err := l.WriteCheckpoint(Checkpoint{NextDump: 2}); err != nil || kept != 1 {
			t.Fatalf("cut %d: checkpoint kept %d, err %v", cut, kept, err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(filepath.Join(dir, journalName)); err != nil || !bytes.Equal(got, compacted) {
			t.Fatalf("cut %d: compaction over a leftover wrote %x, want %x (err %v)", cut, got, compacted, err)
		}
		if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("cut %d: leftover still beside the journal: %v", cut, err)
		}
	}
}
