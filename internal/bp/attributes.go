package bp

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"predata/internal/wire"
)

// Attribute is a small named metadata item stored in the file footer —
// ADIOS attributes: provenance ("sorted_by"), physical units, run
// parameters. Value is either a string or a float64.
type Attribute struct {
	Name   string
	String string
	Float  float64
	// IsString discriminates the value kind.
	IsString bool
}

// SetAttribute records an attribute to be written with the footer.
// Re-setting a name overwrites. Attributes are only durable after Close.
func (w *Writer) SetAttribute(name string, value any) error {
	if name == "" {
		return fmt.Errorf("bp: attribute with empty name")
	}
	var a Attribute
	a.Name = name
	switch v := value.(type) {
	case string:
		a.String = v
		a.IsString = true
	case float64:
		a.Float = v
	case int:
		a.Float = float64(v)
	default:
		return fmt.Errorf("bp: attribute %q has unsupported type %T", name, value)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("bp: attribute on closed writer")
	}
	if w.attrs == nil {
		w.attrs = make(map[string]Attribute)
	}
	w.attrs[name] = a
	return nil
}

// encodeAttributes serializes the attribute table (sorted by name for
// deterministic output).
func encodeAttributes(attrs map[string]Attribute) []byte {
	names := make([]string, 0, len(attrs))
	for n := range attrs {
		names = append(names, n)
	}
	sort.Strings(names)
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(names)))
	for _, n := range names {
		a := attrs[n]
		buf = wire.AppendString(buf, a.Name)
		if a.IsString {
			buf = append(buf, 1)
			buf = wire.AppendString(buf, a.String)
		} else {
			buf = append(buf, 0)
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(a.Float))
		}
	}
	return buf
}

// decodeAttributes parses the attribute table.
func decodeAttributes(c *wire.Cursor) (map[string]Attribute, error) {
	n := int(c.U32())
	if c.Err() != nil {
		return nil, c.Err()
	}
	// An attribute takes at least its name's length and a kind byte.
	if left := c.Left(); n > left/5 {
		return nil, fmt.Errorf("bp: implausible attribute count %d for %d bytes left", n, left)
	}
	out := make(map[string]Attribute, n)
	for range n {
		a := Attribute{Name: c.Str()}
		switch kind := c.U8(); kind {
		case 1:
			a.IsString = true
			a.String = c.Str()
		case 0:
			a.Float = math.Float64frombits(c.U64())
		default:
			return nil, fmt.Errorf("bp: attribute %q has bad kind %d", a.Name, kind)
		}
		if c.Err() != nil {
			return nil, c.Err()
		}
		out[a.Name] = a
	}
	return out, nil
}

// Attributes returns the file's attribute table (possibly empty).
func (r *Reader) Attributes() map[string]Attribute {
	out := make(map[string]Attribute, len(r.attrs))
	for k, v := range r.attrs {
		out[k] = v
	}
	return out
}

// Attribute looks one attribute up.
func (r *Reader) Attribute(name string) (Attribute, bool) {
	a, ok := r.attrs[name]
	return a, ok
}
