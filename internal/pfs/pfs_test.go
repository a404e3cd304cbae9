package pfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func quietConfig() Config {
	return Config{
		NumOSTs:      8,
		OSTBandwidth: 100e6,
		StripeSize:   1 << 20,
		OpLatency:    time.Millisecond,
		VarSigma:     0, // deterministic for tests
		Seed:         1,
	}
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{NumOSTs: 0, OSTBandwidth: 1, StripeSize: 1},
		{NumOSTs: 1, OSTBandwidth: 0, StripeSize: 1},
		{NumOSTs: 1, OSTBandwidth: 1, StripeSize: 0},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	if _, err := New(DefaultConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	fs, err := New(quietConfig())
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("out.bp", 4)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("hello parallel world")
	if _, err := f.WriteAt(payload, 100); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 100+int64(len(payload)) {
		t.Errorf("size %d", f.Size())
	}
	got := make([]byte, len(payload))
	if _, err := f.ReadAt(got, 100); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("got %q", got)
	}
	// The hole before offset 100 reads as zeros.
	hole := make([]byte, 100)
	if _, err := f.ReadAt(hole, 0); err != nil {
		t.Fatal(err)
	}
	for i, b := range hole {
		if b != 0 {
			t.Fatalf("hole byte %d = %d", i, b)
		}
	}
}

func TestAppend(t *testing.T) {
	fs, _ := New(quietConfig())
	f, _ := fs.Create("log", 1)
	off1, _, err := f.Append([]byte("abc"))
	if err != nil {
		t.Fatal(err)
	}
	off2, _, err := f.Append([]byte("defg"))
	if err != nil {
		t.Fatal(err)
	}
	if off1 != 0 || off2 != 3 || f.Size() != 7 {
		t.Errorf("offsets %d %d size %d", off1, off2, f.Size())
	}
}

func TestReadBeyondEOF(t *testing.T) {
	fs, _ := New(quietConfig())
	f, _ := fs.Create("short", 1)
	if _, err := f.WriteAt([]byte("xy"), 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3)
	if _, err := f.ReadAt(buf, 0); err == nil {
		t.Fatal("read beyond EOF succeeded")
	}
	if _, err := f.ReadAt(buf[:1], -1); err == nil {
		t.Fatal("negative offset read succeeded")
	}
	if _, err := f.WriteAt(buf, -1); err == nil {
		t.Fatal("negative offset write succeeded")
	}
}

func TestOpenRemoveList(t *testing.T) {
	fs, _ := New(quietConfig())
	if _, err := fs.Open("missing"); err == nil {
		t.Fatal("open of missing file succeeded")
	}
	if err := fs.Remove("missing"); err == nil {
		t.Fatal("remove of missing file succeeded")
	}
	fs.Create("b", 1)
	fs.Create("a", 1)
	if got := fs.List(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("list %v", got)
	}
	if err := fs.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if got := fs.List(); len(got) != 1 || got[0] != "b" {
		t.Errorf("list after remove %v", got)
	}
	f, err := fs.Open("b")
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != "b" {
		t.Errorf("name %s", f.Name())
	}
}

func TestCreateValidation(t *testing.T) {
	fs, _ := New(quietConfig())
	if _, err := fs.Create("", 1); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestModeledDurationScalesWithSize(t *testing.T) {
	fs, _ := New(quietConfig())
	f, _ := fs.Create("x", 1)
	small := make([]byte, 1<<10)
	large := make([]byte, 1<<24)
	dSmall, err := f.WriteAt(small, 0)
	if err != nil {
		t.Fatal(err)
	}
	dLarge, err := f.WriteAt(large, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dLarge <= dSmall {
		t.Errorf("large write %v not slower than small %v", dLarge, dSmall)
	}
	// 16 MB at 100 MB/s on one stripe is ~160 ms + 1 ms latency.
	want := time.Duration(float64(len(large))/100e6*float64(time.Second)) + time.Millisecond
	if dLarge < want*9/10 || dLarge > want*11/10 {
		t.Errorf("16MB write modeled %v, want ~%v", dLarge, want)
	}
}

func TestStripingIncreasesBandwidth(t *testing.T) {
	fs, _ := New(quietConfig())
	narrow, _ := fs.Create("narrow", 1)
	wide, _ := fs.Create("wide", 8)
	buf := make([]byte, 32<<20)
	dNarrow, _ := narrow.WriteAt(buf, 0)
	dWide, _ := wide.WriteAt(buf, 0)
	if dWide >= dNarrow {
		t.Errorf("wide stripe %v not faster than narrow %v", dWide, dNarrow)
	}
	// 8 stripes should be close to 8x faster on a large transfer.
	ratio := float64(dNarrow) / float64(dWide)
	if ratio < 5 {
		t.Errorf("stripe speedup only %.1fx", ratio)
	}
}

func TestVariabilityProducesSpread(t *testing.T) {
	cfg := quietConfig()
	cfg.VarSigma = 0.5
	fs, _ := New(cfg)
	f, _ := fs.Create("x", 1)
	buf := make([]byte, 4<<20)
	seen := map[time.Duration]bool{}
	for i := 0; i < 20; i++ {
		d, err := f.WriteAt(buf, 0)
		if err != nil {
			t.Fatal(err)
		}
		seen[d] = true
	}
	if len(seen) < 10 {
		t.Errorf("variability produced only %d distinct durations", len(seen))
	}
}

func TestStats(t *testing.T) {
	fs, _ := New(quietConfig())
	f, _ := fs.Create("x", 1)
	f.WriteAt(make([]byte, 100), 0)
	f.WriteAt(make([]byte, 50), 100)
	f.ReadAt(make([]byte, 80), 0)
	s := fs.Stats()
	if s.BytesWritten != 150 || s.WriteOps != 2 {
		t.Errorf("write stats %+v", s)
	}
	if s.BytesRead != 80 || s.ReadOps != 1 {
		t.Errorf("read stats %+v", s)
	}
	if s.ModeledWriteTime <= 0 || s.ModeledReadTime <= 0 {
		t.Errorf("modeled times %+v", s)
	}
}

func TestConcurrentWriters(t *testing.T) {
	fs, _ := New(quietConfig())
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f, err := fs.Create(fmt.Sprintf("f%d", i), 2)
			if err != nil {
				t.Error(err)
				return
			}
			payload := bytes.Repeat([]byte{byte(i)}, 1<<14)
			for k := 0; k < 8; k++ {
				if _, err := f.WriteAt(payload, int64(k)<<14); err != nil {
					t.Error(err)
					return
				}
			}
			got := make([]byte, 8<<14)
			if _, err := f.ReadAt(got, 0); err != nil {
				t.Error(err)
				return
			}
			for _, b := range got {
				if b != byte(i) {
					t.Errorf("file f%d corrupted", i)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if got := len(fs.List()); got != n {
		t.Errorf("%d files", got)
	}
}

// TestWriteReadProperty: random write batches followed by a full-file read
// reproduce a reference byte slice exactly.
func TestWriteReadProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fs, _ := New(quietConfig())
		file, _ := fs.Create("p", 4)
		ref := make([]byte, 1<<12)
		for op := 0; op < 20; op++ {
			off := rng.Intn(len(ref) - 1)
			length := 1 + rng.Intn(len(ref)-off-1)
			chunk := make([]byte, length)
			rng.Read(chunk)
			copy(ref[off:], chunk)
			if _, err := file.WriteAt(chunk, int64(off)); err != nil {
				return false
			}
		}
		got := make([]byte, file.Size())
		if _, err := file.ReadAt(got, 0); err != nil {
			return false
		}
		return bytes.Equal(got, ref[:len(got)])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWrite1MB(b *testing.B) {
	fs, _ := New(quietConfig())
	f, _ := fs.Create("bench", 4)
	buf := make([]byte, 1<<20)
	b.ReportAllocs()
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.WriteAt(buf, 0); err != nil {
			b.Fatal(err)
		}
	}
}
