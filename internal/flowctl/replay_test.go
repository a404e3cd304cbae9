package flowctl

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"predata/internal/wal"
)

// spillChunks spills each payload (writer i, timestep 4) through a dump
// whose budget is held full, then lets the hold go so that Replay can
// acquire credits. Every spill log goes under the returned directory.
func spillChunks(t *testing.T, payloads ...[]byte) (*DumpFlow, string) {
	t.Helper()
	pol := testPolicy(100)
	pol.SpillDir = t.TempDir()
	c, err := NewController(pol)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	df := c.StartDump(4)
	ctx := context.Background()
	hold, err := df.Admit(ctx, 100)
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	release, _ := hold.Keep()
	defer release()
	for i, p := range payloads {
		a, err := df.Admit(ctx, int64(len(p)))
		if err != nil {
			t.Fatalf("Admit(%d): %v", i, err)
		}
		if a.Decision() != DecideSpill {
			t.Fatalf("chunk %d: decision %v, want spill", i, a.Decision())
		}
		if err := a.Spill(i, 4, p); err != nil {
			t.Fatalf("Spill(%d): %v", i, err)
		}
	}
	return df, pol.SpillDir
}

// spillLogFile returns the one file of the dump's spill log.
func spillLogFile(t *testing.T, df *DumpFlow) string {
	t.Helper()
	files, err := os.ReadDir(df.spill.Dir())
	if err != nil || len(files) != 1 {
		t.Fatalf("spill log directory holds %d files, err %v; want one", len(files), err)
	}
	return filepath.Join(df.spill.Dir(), files[0].Name())
}

// replayAll replays the dump's spill log, collecting what it delivers.
func replayAll(df *DumpFlow) ([][]byte, error) {
	var got [][]byte
	err := df.Replay(context.Background(), func(writer int, ts int64, payload []byte, release func()) error {
		defer release()
		if ts != 4 || writer != len(got) {
			return fmt.Errorf("chunk %d replayed as writer %d timestep %d", len(got), writer, ts)
		}
		got = append(got, payload)
		return nil
	})
	return got, err
}

// TestSegmentCorruption damages a spill log one way per row: Replay must
// fail with wal.ErrCorrupt, deliver only the chunks before the damage,
// and still remove the log.
func TestSegmentCorruption(t *testing.T) {
	chunks := [][]byte{[]byte("chunk-0-payload"), []byte("chunk-1-payload"), []byte("chunk-2-payload")}
	const magic, header = 8, 25 // wal's journal magic and record header
	second := magic + header + len(chunks[0])
	for _, row := range []struct {
		name   string
		damage func([]byte) []byte
		intact int // chunks before the damage
	}{
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, 0},
		{"flipped payload byte", func(b []byte) []byte { b[second+header+3] ^= 0xff; return b }, 1},
		{"truncated payload", func(b []byte) []byte { return b[:second+header+5] }, 1},
		{"truncated header", func(b []byte) []byte { return b[:second+10] }, 1},
	} {
		t.Run(row.name, func(t *testing.T) {
			df, dir := spillChunks(t, chunks...)
			path := spillLogFile(t, df)
			if err := df.spill.Close(); err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, row.damage(b), 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := replayAll(df)
			if !errors.Is(err, wal.ErrCorrupt) {
				t.Fatalf("Replay err = %v, want wal.ErrCorrupt", err)
			}
			if len(got) != row.intact {
				t.Fatalf("Replay delivered %d chunks, want the %d before the damage", len(got), row.intact)
			}
			for i := range got {
				if !bytes.Equal(got[i], chunks[i]) {
					t.Fatalf("chunk %d replayed as %q", i, got[i])
				}
			}
			if left, _ := os.ReadDir(dir); len(left) != 0 {
				t.Fatalf("a failed Replay left %d entries in the spill directory", len(left))
			}
			if st := df.Finish(); st.ReplayedChunks != int64(row.intact) {
				t.Fatalf("ReplayedChunks = %d, want %d", st.ReplayedChunks, row.intact)
			}
		})
	}
	t.Run("fn error propagates", func(t *testing.T) {
		df, _ := spillChunks(t, chunks...)
		sentinel := errors.New("stop")
		n := 0
		err := df.Replay(context.Background(), func(_ int, _ int64, _ []byte, release func()) error {
			n++
			return sentinel
		})
		if !errors.Is(err, sentinel) || n != 1 {
			t.Fatalf("Replay err = %v after %d deliveries, want the sentinel after 1", err, n)
		}
		if used := df.c.budget.Stats().Used; used != 0 {
			t.Fatalf("a refused delivery kept %d bytes of credit", used)
		}
		df.Finish()
	})
}

// TestSpillReplayBoundsLength damages a spill record's length field to
// claim almost 4 GiB: Replay must refuse it without allocating more than
// the file holds.
func TestSpillReplayBoundsLength(t *testing.T) {
	df, _ := spillChunks(t, []byte("chunk-0-payload"))
	path := spillLogFile(t, df)
	if err := df.spill.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(b[8+17:], 0xFFFFFFF0) // the record's length word
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := replayAll(df)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, wal.ErrCorrupt) || len(got) != 0 {
		t.Fatalf("Replay delivered %d chunks, err %v; want none and wal.ErrCorrupt", len(got), err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Fatalf("replaying a %d-byte spill log allocated %d bytes", len(b), alloc)
	}
	df.Finish()
}

// TestSpillReplaysLargeChunk spills a 65 MiB chunk and replays it whole:
// a spill record's only limit is its 32-bit length field.
func TestSpillReplaysLargeChunk(t *testing.T) {
	big := make([]byte, 65<<20)
	for i := range big {
		big[i] = byte(i * 13)
	}
	df, _ := spillChunks(t, big)
	got, err := replayAll(df)
	if err != nil || len(got) != 1 || !bytes.Equal(got[0], big) {
		t.Fatalf("Replay of a 65 MiB chunk: %d chunks, err %v", len(got), err)
	}
	// The log is consumed: replaying again delivers nothing.
	if again, err := replayAll(df); err != nil || len(again) != 0 {
		t.Fatalf("second Replay delivered %d chunks, err %v", len(again), err)
	}
	if st := df.Finish(); st.SpilledChunks != 1 || st.ReplayedChunks != 1 {
		t.Fatalf("stats = %+v, want 1 spilled and 1 replayed", st)
	}
}
