package pfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// checkExtents asserts the representation invariant: extents sorted, none
// empty, none overlapping, all inside the file.
func checkExtents(t *testing.T, fd *fileData) {
	t.Helper()
	fd.mu.Lock()
	defer fd.mu.Unlock()
	var end int64
	for i, e := range fd.extents {
		if len(e.data) == 0 || e.off < end {
			t.Fatalf("extent %d at %d (%d bytes) is empty or overlaps its predecessor ending at %d", i, e.off, len(e.data), end)
		}
		end = e.off + int64(len(e.data))
	}
	if end > fd.size {
		t.Fatalf("extents reach %d, past the file size %d", end, fd.size)
	}
}

// TestExtentsMatchFlatModel runs seeded random sequences of every data
// operation against the obvious model of a file — one flat byte slice that
// is zero-extended by any write past its end — and compares every read,
// every export and the size after every step. Offsets are drawn so that
// writes leave holes, overlap earlier writes, span several extents and land
// exactly on extent boundaries; lengths include zero.
func TestExtentsMatchFlatModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fs, _ := New(quietConfig())
		f, _ := fs.Create("f", 4)
		var model []byte
		span := 1 << (4 + rng.Intn(8)) // small spans collide often, large ones leave holes
		fresh := func() ([]byte, int64) {
			p := make([]byte, rng.Intn(span/2+1)*rng.Intn(2)+rng.Intn(8))
			rng.Read(p)
			return p, int64(rng.Intn(span))
		}
		put := func(p []byte, off int64) {
			if need := int(off) + len(p); need > len(model) {
				model = append(model, make([]byte, need-len(model))...)
			}
			copy(model[off:], p)
		}
		for step := 0; step < 300; step++ {
			what := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := rng.Intn(10); {
			case op < 3:
				p, off := fresh()
				if _, err := f.WriteAt(p, off); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				put(p, off)
				for i := range p {
					p[i] = 0xA5 // the caller's buffer is still the caller's
				}
			case op < 5:
				p, off := fresh()
				if _, err := f.WriteOwned(p, off); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				put(p, off)
			case op < 6:
				p, _ := fresh()
				off, _, err := f.Append(p)
				if err != nil || off != int64(len(model)) {
					t.Fatalf("%s: append landed at %d (%v), want %d", what, off, err, len(model))
				}
				put(p, off)
				for i := range p {
					p[i] = 0x5A
				}
			case op < 9:
				off, n := rng.Intn(span+8), rng.Intn(span)
				got := bytes.Repeat([]byte{0xEE}, n)
				_, err := f.ReadAt(got, int64(off))
				if off+n > len(model) {
					if err == nil {
						t.Fatalf("%s: read [%d:%d) of a %d-byte file succeeded", what, off, off+n, len(model))
					}
				} else if err != nil || !bytes.Equal(got, model[off:off+n]) {
					t.Fatalf("%s: read [%d:%d) differs from the model (%v)", what, off, off+n, err)
				}
			default:
				var buf bytes.Buffer
				if err := fs.Export("f", &buf); err != nil || !bytes.Equal(buf.Bytes(), model) {
					t.Fatalf("%s: export differs from the model (%v)", what, err)
				}
				if rng.Intn(4) == 0 { // and come back as a fresh single extent
					if err := fs.Import("f", &buf, 4); err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					reopened, err := fs.Open("f")
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					f = reopened
				}
			}
			if f.Size() != int64(len(model)) {
				t.Fatalf("%s: size %d, model %d", what, f.Size(), len(model))
			}
			checkExtents(t, f.fd)
		}
	}
}

// TestOnlyWriteOwnedAliases: the file shares memory with a caller's buffer
// only when the caller gave it away, and only where the buffer landed on no
// stored bytes.
func TestOnlyWriteOwnedAliases(t *testing.T) {
	fs, _ := New(quietConfig())
	f, _ := fs.Create("f", 1)
	read := func(off int64, n int) []byte {
		t.Helper()
		got := make([]byte, n)
		if _, err := f.ReadAt(got, off); err != nil {
			t.Fatal(err)
		}
		return got
	}

	lent := []byte("lent")
	if _, err := f.WriteAt(lent, 0); err != nil {
		t.Fatal(err)
	}
	copy(lent, "XXXX")
	if got := read(0, 4); string(got) != "lent" {
		t.Errorf("scribbling on a buffer passed to WriteAt changed the file to %q", got)
	}

	// Given away over a hole: the extent is the buffer.
	given := []byte("given away")
	if _, err := f.WriteOwned(given, 100); err != nil {
		t.Fatal(err)
	}
	if e := f.fd.extents[len(f.fd.extents)-1]; e.off != 100 || &e.data[0] != &given[0] {
		t.Error("WriteOwned over a hole stored a copy, not the buffer it was given")
	}

	// Given away across stored bytes and holes: stored bytes are
	// overwritten where they are, only the holes keep pieces of the buffer.
	// File: [0,4) "lent", hole, [100,110) "given away".
	kept := f.fd.extents[0].data
	across := bytes.Repeat([]byte{'a'}, 110)
	if _, err := f.WriteOwned(across, 0); err != nil {
		t.Fatal(err)
	}
	checkExtents(t, f.fd)
	if len(f.fd.extents) != 3 || &f.fd.extents[0].data[0] != &kept[0] || &f.fd.extents[2].data[0] != &given[0] {
		t.Fatalf("stored extents were replaced, not overwritten in place (%d extents)", len(f.fd.extents))
	}
	if mid := f.fd.extents[1]; mid.off != 4 || len(mid.data) != 96 || &mid.data[0] != &across[4] {
		t.Errorf("the hole [4,100) holds %d bytes at %d, want the buffer's own bytes 4..100", len(mid.data), mid.off)
	}
	if got := read(0, 110); !bytes.Equal(got, across) {
		t.Error("file differs from what was written across it")
	}
}

// TestConcurrentDisjointWriters: writers interleave stripes of one file
// through both write calls while readers walk it; run under -race this
// is the check that the extent list is never touched outside the file lock.
func TestConcurrentDisjointWriters(t *testing.T) {
	fs, _ := New(quietConfig())
	f, _ := fs.Create("shared", 4)
	const (
		writers = 8
		stripes = 32
		stripe  = 509 // prime: stripes never line up with anything
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for s := stripes - 1; s >= 0; s-- { // back to front: every write lands in a hole
				off := int64((s*writers + w) * stripe)
				p := bytes.Repeat([]byte{byte(w + 1)}, stripe)
				var err error
				if (s+w)%2 == 0 {
					_, err = f.WriteOwned(p, off)
				} else {
					_, err = f.WriteAt(p, off)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			buf := make([]byte, 3*stripe)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if size := f.Size(); size >= int64(len(buf)) {
					if _, err := f.ReadAt(buf, size-int64(len(buf))); err != nil {
						t.Error(err)
						return
					}
				}
				if err := fs.Export("shared", &bytes.Buffer{}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	checkExtents(t, f.fd)
	got := make([]byte, writers*stripes*stripe)
	if f.Size() != int64(len(got)) {
		t.Fatalf("size %d, want %d", f.Size(), len(got))
	}
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if want := byte(i/stripe%writers + 1); b != want {
			t.Fatalf("byte %d is %d, want writer %d's", i, b, want)
		}
	}
}

// TestExtendingWriteCostsItsBytes: appending to a large file allocates the
// appended bytes, not the file.
func TestExtendingWriteCostsItsBytes(t *testing.T) {
	fs, _ := New(quietConfig())
	f, _ := fs.Create("big", 4)
	if _, err := f.WriteOwned(make([]byte, 8<<20), 0); err != nil {
		t.Fatal(err)
	}
	tail := make([]byte, 4096)
	const rounds = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		if _, _, err := f.Append(tail); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / rounds; got > 2*uint64(len(tail)) {
		t.Errorf("appending %d bytes to an 8 MiB file allocated %d per call: the file is being copied", len(tail), got)
	}
}
