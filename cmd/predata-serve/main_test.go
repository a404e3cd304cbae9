package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestServeMultiTenant(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, 4, 4, 32, 64, 2, 256, 2, 4, 2, ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, marker := range []string{"4 tenants", "sim00", "sim03", "cache:", "zero cross-tenant reads"} {
		if !strings.Contains(out, marker) {
			t.Errorf("output missing %q:\n%s", marker, out)
		}
	}
}

func TestServeCacheOff(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, 2, 3, 32, 64, 2, 0, 2, 4, 1, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "cache: 0 hits") {
		t.Errorf("cache-off run reported hits:\n%s", buf.String())
	}
}

func TestServeWithWAL(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, 2, 3, 32, 64, 2, 64, 2, 4, 1, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "wal: ingest journal") {
		t.Errorf("WAL run did not mention the journal:\n%s", buf.String())
	}
}

func TestServeRejectsBadShapes(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, 0, 4, 32, 64, 2, 0, 2, 4, 1, ""); err == nil {
		t.Error("zero tenants accepted")
	}
	if err := run(&buf, 2, 4, 32, 64, 0, 0, 2, 4, 1, ""); err == nil {
		t.Error("zero window accepted")
	}
	if err := run(&buf, 2, 4, 8, 64, 2, 0, 2, 4, 1, ""); err == nil {
		t.Error("tiny domain accepted")
	}
	if err := run(&buf, 2, 4, 32, 64, 2, 0, 8, 8, 1, ""); err == nil {
		t.Error("query shape exceeding rows accepted")
	}
}

// TestCPUProfile: -cpuprofile leaves a flushed, gzip-compressed profile
// after a run that succeeds and after one that fails once profiling began.
func TestCPUProfile(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		name string
		args []string
		code int
	}{
		{"ok", []string{"-tenants", "2", "-versions", "2", "-cols", "64", "-rounds", "1"}, 0},
		{"failed", []string{"-tenants", "0"}, 1},
	} {
		path := filepath.Join(dir, c.name+".prof")
		if got := cli(append(c.args, "-cpuprofile", path)); got != c.code {
			t.Fatalf("%s: exit status %d, want %d", c.name, got, c.code)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(raw, []byte{0x1f, 0x8b}) {
			t.Errorf("%s: %s does not start with the gzip magic", c.name, path)
		}
	}
}
