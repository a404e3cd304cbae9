package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// genRecording derives a structurally valid recording from a seed, so
// the round-trip fuzzer explores the full field space without tripping
// the decoder's validation on inputs the writer would never produce.
func genRecording(seed int64, n int) *Recording {
	rng := rand.New(rand.NewSource(seed))
	rec := &Recording{
		NumCompute: rng.Intn(1 << 10),
		NumStaging: rng.Intn(1 << 8),
		Dumps:      rng.Intn(1 << 8),
		Dropped:    rng.Int63n(1 << 20),
		Events:     make([]Event, n),
	}
	for i := range rec.Events {
		e := &rec.Events[i]
		e.Phase = Phase(1 + rng.Intn(len(phaseNames)-1))
		e.Rank = int32(rng.Intn(1<<16) - 1)
		e.Endpoint = int32(rng.Intn(1<<16) - 1)
		e.Dump = rng.Int63n(1<<32) - 1
		e.Seq = rng.Int63() - rng.Int63()
		e.Arg = rng.Int63() - rng.Int63()
		e.Start = rng.Int63n(1 << 40)
		if rng.Intn(2) == 0 {
			e.Kind = KindSpan
			e.End = e.Start + rng.Int63n(1<<20)
		} else {
			e.Kind = KindInstant
			e.End = e.Start
		}
	}
	return rec
}

// FuzzTraceBinaryRoundTrip checks that every recording the writer can
// produce decodes back to an identical value.
func FuzzTraceBinaryRoundTrip(f *testing.F) {
	f.Add(int64(1), 0)
	f.Add(int64(7), 1)
	f.Add(int64(42), 100)
	f.Add(int64(-3), 1000)
	f.Fuzz(func(t *testing.T, seed int64, n int) {
		if n < 0 || n > 4096 {
			return
		}
		rec := genRecording(seed, n)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, rec); err != nil {
			t.Fatalf("write: %v", err)
		}
		got, err := DecodeBinary(buf.Bytes())
		if err != nil {
			t.Fatalf("decode of freshly written recording: %v", err)
		}
		// An empty event list decodes to a nil slice; normalize before
		// comparing.
		if len(rec.Events) == 0 {
			rec.Events, got.Events = nil, nil
		}
		if !reflect.DeepEqual(rec, got) {
			t.Fatalf("round trip changed the recording:\nwrote %+v\nread  %+v", rec, got)
		}
	})
}

// FuzzTraceReaderCorrupt feeds arbitrary bytes to the binary reader:
// corrupt input must produce an error, never a panic, and anything the
// reader accepts must re-encode cleanly (the decoded value is a valid
// recording, not just a non-crash).
func FuzzTraceReaderCorrupt(f *testing.F) {
	// Seed with a valid file and targeted mutations of it.
	r := New(Config{NumCompute: 2, NumStaging: 1, Dumps: 1})
	r.Instant(PhaseCollective, 2, int(CollBarrier), 0, -1, 1)
	sp := r.Begin(PhaseMap, 2, -1, 0, -1)
	sp.End(9)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, r.Snapshot()); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte("PDTRACE2"))
	for _, i := range []int{0, 8, 12, 20, len(good) / 2, len(good) - 2} {
		mut := append([]byte(nil), good...)
		mut[i] ^= 0x40
		f.Add(mut)
	}
	f.Add(append(append([]byte(nil), good...), 0, 0, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeBinary(data)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteBinary(&out, rec); err != nil {
			t.Fatalf("accepted recording failed to re-encode: %v", err)
		}
		again, err := DecodeBinary(out.Bytes())
		if err != nil {
			t.Fatalf("re-encoded recording failed to decode: %v", err)
		}
		if len(rec.Events) != len(again.Events) {
			t.Fatalf("re-encode changed event count %d -> %d", len(rec.Events), len(again.Events))
		}
	})
}
