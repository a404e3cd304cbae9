package pfs

import (
	"fmt"
	"io"
	"os"
)

// Export copies the named file's bytes to w, so data produced on the
// simulated file system (e.g. BP files) can leave the process and be
// inspected by external tools.
func (fs *FileSystem) Export(name string, w io.Writer) error {
	fs.mu.Lock()
	fd, ok := fs.files[name]
	fs.mu.Unlock()
	if !ok {
		return fmt.Errorf("pfs: export %s: no such file", name)
	}
	fd.mu.Lock()
	if fd.dropped { // removed since the lookup
		fd.mu.Unlock()
		return fmt.Errorf("pfs: export %s: %w", name, ErrDropped)
	}
	data := make([]byte, fd.size)
	fd.load(data, 0)
	fd.mu.Unlock()
	_, err := w.Write(data)
	return err
}

// ExportToOS writes the named file to an operating-system path.
func (fs *FileSystem) ExportToOS(name, osPath string) error {
	f, err := os.Create(osPath)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := fs.Export(name, f); err != nil {
		return err
	}
	return f.Close()
}

// Import creates the named file with the bytes read from r, dropping a
// file already under the name as Create does. The import itself is free
// under the performance model; subsequent reads are charged normally.
func (fs *FileSystem) Import(name string, r io.Reader, stripes int) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	// The file keeps the buffer, but not as a whole one: io.ReadAll sized
	// it, not a writer, so it stays off the free list when the file goes.
	fd := &fileData{stripes: fs.stripes(stripes), size: int64(len(data))}
	if len(data) > 0 {
		fd.extents = []extent{{data: data}}
	}
	fs.put(name, fd)
	return nil
}

// ImportFromOS loads an operating-system file into the simulated file
// system under the same base name semantics as Import.
func (fs *FileSystem) ImportFromOS(name, osPath string, stripes int) error {
	f, err := os.Open(osPath)
	if err != nil {
		return err
	}
	defer f.Close()
	return fs.Import(name, f, stripes)
}
