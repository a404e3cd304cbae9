package pfs

import (
	"bytes"
	"errors"
	"testing"
)

// TestDroppedFileHandlesFail: a handle opened before its file is removed,
// or replaced by Create or Import under its name, gets ErrDropped from
// every read and write — never the bytes of a buffer the file system may
// have handed to another file.
func TestDroppedFileHandlesFail(t *testing.T) {
	fs, _ := New(quietConfig())
	drops := map[string]func() error{
		"Remove": func() error { return fs.Remove("f") },
		"Create": func() error { _, err := fs.Create("f", 1); return err },
		"Import": func() error { return fs.Import("f", bytes.NewReader([]byte("new")), 1) },
	}
	for how, drop := range drops {
		f, err := fs.Create("f", 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteOwned([]byte("owned bytes"), 0); err != nil {
			t.Fatal(err)
		}
		old, err := fs.Open("f")
		if err != nil {
			t.Fatal(err)
		}
		if err := drop(); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 5)
		if _, err := old.ReadAt(got, 0); !errors.Is(err, ErrDropped) {
			t.Errorf("%s: ReadAt through an old handle: %v, read %q; want ErrDropped", how, err, got)
		}
		if _, err := old.WriteAt([]byte("x"), 0); !errors.Is(err, ErrDropped) {
			t.Errorf("%s: WriteAt through an old handle: %v, want ErrDropped", how, err)
		}
		if _, err := old.WriteOwned([]byte("x"), 0); !errors.Is(err, ErrDropped) {
			t.Errorf("%s: WriteOwned through an old handle: %v, want ErrDropped", how, err)
		}
		if _, _, err := old.Append([]byte("x")); !errors.Is(err, ErrDropped) {
			t.Errorf("%s: Append through an old handle: %v, want ErrDropped", how, err)
		}
	}
}

// TestFreeListKeepsWholeOwnedBuffers: dropping a file puts on the free
// list the buffers it was handed whole through WriteOwned — not copies,
// not pieces of a buffer that landed on stored bytes — and Reuse takes the
// shortest of the lengths asked for, once.
func TestFreeListKeepsWholeOwnedBuffers(t *testing.T) {
	fs, _ := New(quietConfig())
	f, _ := fs.Create("f", 1)
	short, long := make([]byte, 64), make([]byte, 128)
	if _, err := f.WriteAt(make([]byte, 256), 1000); err != nil { // copied
		t.Fatal(err)
	}
	for off, p := range map[int64][]byte{0: long, 200: short} {
		if _, err := f.WriteOwned(p, off); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.WriteOwned(make([]byte, 100), 1200); err != nil { // lands partly on stored bytes
		t.Fatal(err)
	}
	if got := fs.Reuse(0, 1<<20); got != nil {
		t.Fatalf("a live file's buffer (%d bytes) is on the free list", len(got))
	}
	if err := fs.Remove("f"); err != nil {
		t.Fatal(err)
	}
	if got := fs.Reuse(129, 1<<20); got != nil {
		t.Fatalf("Reuse(129, ...) returned %d bytes", len(got))
	}
	if got := fs.Reuse(0, 1<<20); len(got) != 64 || &got[0] != &short[0] {
		t.Fatalf("Reuse returned %d bytes, want the shorter buffer itself", len(got))
	}
	if got := fs.Reuse(0, 1<<20); len(got) != 128 || &got[0] != &long[0] {
		t.Fatalf("Reuse returned %d bytes, want the longer buffer itself", len(got))
	}
	if got := fs.Reuse(0, 1<<20); got != nil {
		t.Fatalf("free list still holds %d bytes: only the two whole owned buffers belong there", len(got))
	}
}

// TestImportedBufferStaysOffFreeList: an imported file's buffer was sized
// by the read, not by a writer, so it need not end on a word boundary and
// does not go to the free list when the file is dropped.
func TestImportedBufferStaysOffFreeList(t *testing.T) {
	fs, _ := New(quietConfig())
	if err := fs.Import("f", bytes.NewReader(make([]byte, 13)), 1); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("f"); err != nil {
		t.Fatal(err)
	}
	if got := fs.Reuse(13, 13); got != nil {
		t.Fatalf("Reuse(13, 13) returned the imported file's %d-byte buffer", len(got))
	}
}

// TestFreeListDropsOldestFirst: past its cap the free list lets its oldest
// buffers go.
func TestFreeListDropsOldestFirst(t *testing.T) {
	fs, _ := New(quietConfig())
	for i := range 4 {
		fs.free = append(fs.free, bytes.Repeat([]byte{byte(i)}, 10))
		fs.freeBytes += 10
	}
	fs.trimFree(25)
	if fs.freeBytes != 20 || len(fs.free) != 2 || fs.free[0][0] != 2 || fs.free[1][0] != 3 {
		t.Fatalf("after trimming to 25 bytes the list holds %d bytes in %d buffers, want buffers 2 and 3", fs.freeBytes, len(fs.free))
	}
}
