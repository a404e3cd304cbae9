package wire

import (
	"encoding/binary"
	"fmt"
)

// Cursor reads a little-endian layout out of one buffer and never indexes
// or allocates past the bytes left: each read checks the bytes it takes,
// and a count is checked against the bytes left before anything is sized
// by it. The first failure sticks — later reads return zero values — and
// Err reports it, prefixed with the name of the format being read.
type Cursor struct {
	buf    []byte
	off    int
	format string
	err    error
}

// NewCursor returns a cursor at the start of buf; format names the layout
// in errors ("ffs", "bp footer").
func NewCursor(buf []byte, format string) *Cursor {
	return &Cursor{buf: buf, format: format}
}

// Err returns the first failure, or nil.
func (c *Cursor) Err() error { return c.err }

// Off returns the offset of the next byte to read.
func (c *Cursor) Off() int { return c.off }

// Left returns the number of bytes after the cursor.
func (c *Cursor) Left() int { return len(c.buf) - c.off }

// Fail records a format error unless a failure is already recorded.
func (c *Cursor) Fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%s: %s", c.format, fmt.Sprintf(format, args...))
	}
}

// need reports whether n more bytes are left, failing the cursor if not.
func (c *Cursor) need(n int) bool {
	if c.err != nil {
		return false
	}
	if n < 0 || n > len(c.buf)-c.off {
		c.Fail("truncated buffer: need %d bytes at offset %d of %d", n, c.off, len(c.buf))
		return false
	}
	return true
}

// Next returns the next n bytes and steps over them. The result is a view
// over the buffer, capped so an append by the holder cannot reach the bytes
// that follow; it is nil once the cursor has failed.
func (c *Cursor) Next(n int) []byte {
	if !c.need(n) {
		return nil
	}
	b := c.buf[c.off : c.off+n : c.off+n]
	c.off += n
	return b
}

// Skip steps over n bytes.
func (c *Cursor) Skip(n int) {
	if c.need(n) {
		c.off += n
	}
}

// U8, U32 and U64 read one value; each reads zero once the cursor has
// failed.
func (c *Cursor) U8() uint8 {
	if !c.need(1) {
		return 0
	}
	v := c.buf[c.off]
	c.off++
	return v
}

func (c *Cursor) U32() uint32 {
	if !c.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(c.buf[c.off:])
	c.off += 4
	return v
}

func (c *Cursor) U64() uint64 {
	if !c.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(c.buf[c.off:])
	c.off += 8
	return v
}

// Bytes reads a field AppendString wrote, as a capped view (see Next).
func (c *Cursor) Bytes() []byte { return c.Next(int(c.U32())) }

// Str reads a field AppendString wrote, as a string.
func (c *Cursor) Str() string { return string(c.Bytes()) }

// U64s reads a vector AppendU64s wrote; an empty vector reads as nil.
func (c *Cursor) U64s() []uint64 {
	n := int(c.U32())
	if n == 0 || !c.need(8*n) {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(c.buf[c.off:])
		c.off += 8
	}
	return out
}

// AppendString appends s behind its u32 length: the layout Str and Bytes
// read.
func AppendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// AppendU64s appends v behind its u32 count: the layout U64s reads.
func AppendU64s(b []byte, v []uint64) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(v)))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, x)
	}
	return b
}
