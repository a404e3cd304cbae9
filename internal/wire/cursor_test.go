package wire

import (
	"reflect"
	"strings"
	"testing"
)

// TestCursorRoundTrip: the cursor reads back what the appenders wrote.
func TestCursorRoundTrip(t *testing.T) {
	buf := AppendString(nil, "rho")
	buf = AppendU64s(buf, []uint64{8, 1 << 40})
	buf = AppendU64s(buf, nil)
	buf = append(buf, 7)
	c := NewCursor(buf, "test")
	if s, v, empty, b := c.Str(), c.U64s(), c.U64s(), c.U8(); s != "rho" ||
		!reflect.DeepEqual(v, []uint64{8, 1 << 40}) || empty != nil || b != 7 {
		t.Fatalf("read %q %v %v %d", s, v, empty, b)
	}
	if c.Err() != nil || c.Left() != 0 {
		t.Fatalf("err %v with %d bytes left", c.Err(), c.Left())
	}
}

// TestCursorBounded: a count larger than the bytes left fails the cursor
// before anything is sized by it; the failure names the format, sticks, and
// later reads return zero values.
func TestCursorBounded(t *testing.T) {
	buf := []byte{0xff, 0xff, 0xff, 0x0f, 1, 2, 3, 4, 5, 6, 7, 8}
	c := NewCursor(buf, "test format")
	if v := c.U64s(); v != nil {
		t.Fatalf("U64s = %d values from %d bytes", len(v), len(buf))
	}
	err := c.Err()
	if err == nil || !strings.HasPrefix(err.Error(), "test format: ") {
		t.Fatalf("err = %v, want one naming the format", err)
	}
	if v := c.U64(); v != 0 || c.Err() != err {
		t.Fatalf("after the failure U64 = %d, err %v", v, c.Err())
	}
	// A view cannot be appended into the bytes after it.
	c = NewCursor([]byte{1, 2, 3, 4}, "test")
	if v := c.Next(2); cap(v) != 2 {
		t.Fatalf("Next(2) has capacity %d", cap(v))
	}
	if c.Next(3) != nil || c.Err() == nil {
		t.Fatal("Next past the end succeeded")
	}
}
