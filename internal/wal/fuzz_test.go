package wal

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzWALRoundTrip drives the journal with a fuzz-derived append
// sequence and asserts recovery returns exactly the uncommitted suffix:
// framing, CRC, commit dedup and ordering all under one roof.
func FuzzWALRoundTrip(f *testing.F) {
	f.Add([]byte{1, 0, 3, 2, 0, 0, 3, 1}, []byte("payload"))
	f.Add([]byte{1, 1, 1, 2, 3, 3, 3, 2, 1, 0}, []byte{})
	f.Add([]byte{3, 3, 3}, []byte{0xff, 0x00, 0xfe})
	f.Fuzz(func(t *testing.T, script []byte, payload []byte) {
		if len(payload) > 1<<16 {
			t.Skip()
		}
		dir := t.TempDir()
		l, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		committed := map[int64]bool{}
		type entry struct {
			kind Kind
			ts   int64
		}
		var live []entry
		for i, b := range script {
			ts := int64(b>>2) % 5
			switch b % 3 {
			case 0:
				if err := l.AppendChunk(i, ts, payload); err != nil {
					t.Fatal(err)
				}
				if !committed[ts] {
					live = append(live, entry{KindChunk, ts})
				}
			case 1:
				if err := l.AppendRequest(i, ts, payload); err != nil {
					t.Fatal(err)
				}
				if !committed[ts] {
					live = append(live, entry{KindRequest, ts})
				}
			case 2:
				if err := l.AppendCommit(ts); err != nil {
					t.Fatal(err)
				}
				committed[ts] = true
				kept := live[:0]
				for _, e := range live {
					if e.ts != ts {
						kept = append(kept, e)
					}
				}
				live = kept
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		st, err := Recover(dir)
		if err != nil {
			t.Fatal(err)
		}
		if st.Torn {
			t.Fatal("clean journal reported torn")
		}
		var wantChunks, wantReqs int
		for _, e := range live {
			if e.kind == KindChunk {
				wantChunks++
			} else {
				wantReqs++
			}
		}
		if len(st.Chunks) != wantChunks || len(st.Requests) != wantReqs {
			t.Fatalf("recovered chunks=%d requests=%d, want %d/%d",
				len(st.Chunks), len(st.Requests), wantChunks, wantReqs)
		}
		for _, r := range append(append([]Record(nil), st.Chunks...), st.Requests...) {
			if committed[r.Timestep] {
				t.Fatalf("record for committed dump %d survived", r.Timestep)
			}
		}
		for _, r := range st.Chunks {
			if !bytes.Equal(r.Payload, payload) {
				t.Fatalf("chunk payload mangled: %q", r.Payload)
			}
		}
	})
}

// fuzzJournal builds a small valid compacted journal and returns its
// bytes: a checkpoint record covering dump 0, a request for dump 1
// carried across it, then dumps 1 and 2 with dump 1 committed.
func fuzzJournal(t *testing.T, dir string) []byte {
	t.Helper()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for ts := int64(0); ts < 3; ts++ {
		if err := l.AppendRequest(1, ts, []byte("request-blob")); err != nil {
			t.Fatal(err)
		}
		if ts == 0 {
			if err := l.AppendRequest(1, 1, []byte("early-request")); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.AppendChunk(1, ts, []byte("chunk-payload-bytes")); err != nil {
			t.Fatal(err)
		}
		if ts < 2 {
			if err := l.AppendCommit(ts); err != nil {
				t.Fatal(err)
			}
		}
		if ts == 0 {
			if kept, err := l.WriteCheckpoint(Checkpoint{NextDump: 1}); err != nil || kept != 1 {
				t.Fatalf("checkpoint kept %d, err %v", kept, err)
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzWALTruncatedTail truncates a valid journal at an arbitrary offset:
// recovery must never error, never panic, and never surface a record
// the prefix does not wholly contain.
func FuzzWALTruncatedTail(f *testing.F) {
	f.Add(uint(0))
	f.Add(uint(7))
	f.Add(uint(9))
	f.Add(uint(40))
	f.Add(uint(1 << 20))
	f.Add(uint(20)) // inside the checkpoint record
	f.Fuzz(func(t *testing.T, cut uint) {
		src := t.TempDir()
		whole := fuzzJournal(t, src)
		off := int(cut % uint(len(whole)+1))
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalName), whole[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Recover(dir)
		if err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		if off == len(whole) && st.Torn {
			t.Fatal("untruncated journal reported torn")
		}
		if int64(off) < st.Records*headerSize {
			t.Fatalf("offset %d cannot hold %d records", off, st.Records)
		}
	})
}

// FuzzWALBitFlip flips one byte anywhere in a valid journal: recovery
// must never error or panic — the damage either lands in the tail
// (prefix shortens, Torn) or in the magic (ErrCorrupt, the one loud
// case) — and the surviving prefix must still satisfy commit dedup and
// checkpoint coverage.
// Scan, the strict reader pass logs are read with, must deliver exactly the
// records recovery kept and fail with ErrCorrupt exactly when recovery
// saw damage. A flip outside the magic always tears the journal, and the
// records before it are a strict prefix of the unflipped journal's.
func FuzzWALBitFlip(f *testing.F) {
	f.Add(uint(0), byte(0xff))
	f.Add(uint(8), byte(0x01))
	f.Add(uint(30), byte(0x80))
	f.Add(uint(100), byte(0x55))
	f.Add(uint(len(journalMagic)+9), byte(0x01)) // the checkpoint record's timestep
	f.Fuzz(func(t *testing.T, pos uint, mask byte) {
		if mask == 0 {
			t.Skip()
		}
		src := t.TempDir()
		whole := fuzzJournal(t, src)
		off := int(pos % uint(len(whole)))
		whole[off] ^= mask
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalName), whole, 0o644); err != nil {
			t.Fatal(err)
		}
		var scanned int64
		floor, commits := int64(math.MinInt64), map[int64]bool{}
		var got []Record
		scanErr := Scan(dir, func(rec Record) error {
			scanned++
			got = append(got, rec)
			switch rec.Kind {
			case KindCheckpoint:
				floor = max(floor, rec.Timestep)
			case KindCommit:
				commits[rec.Timestep] = true
			}
			return nil
		})
		st, err := Recover(dir)
		if err != nil {
			if off < len(journalMagic) && errors.Is(scanErr, ErrCorrupt) {
				return // damaged magic is the one loud failure
			}
			t.Fatalf("bit flip at %d: %v (scan: %v)", off, err, scanErr)
		}
		if scanned != st.Records || (scanErr != nil) != st.Torn || (scanErr != nil && !errors.Is(scanErr, ErrCorrupt)) {
			t.Fatalf("bit flip at %d: Scan delivered %d records with err %v; Recover kept %d, torn=%v",
				off, scanned, scanErr, st.Records, st.Torn)
		}
		// Every byte past the magic is under a record's checksum: the flip
		// tears the journal at the record it hit, and what is read before
		// it is the unflipped journal's records, unchanged.
		var want []Record
		if err := Scan(src, func(rec Record) error { want = append(want, rec); return nil }); err != nil {
			t.Fatal(err)
		}
		if !st.Torn || len(got) >= len(want) || !slices.EqualFunc(got, want[:len(got)], sameRecord) {
			t.Fatalf("bit flip at %d: recovered %+v, torn=%v; want a strict prefix of %+v, torn", off, got, st.Torn, want)
		}
		for _, r := range append(append([]Record(nil), st.Chunks...), st.Requests...) {
			if r.Timestep < floor || commits[r.Timestep] {
				t.Fatalf("bit flip at %d: record for committed dump %d survived", off, r.Timestep)
			}
		}
	})
}

// sameRecord reports whether a and b are one record.
func sameRecord(a, b Record) bool {
	return a.Kind == b.Kind && a.Writer == b.Writer && a.Timestep == b.Timestep && bytes.Equal(a.Payload, b.Payload)
}
