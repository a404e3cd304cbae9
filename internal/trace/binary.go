package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Binary recording format, sibling of wal's PDWAL2 record logs (the
// journal, and flowctl's pass logs):
//
//	magic   "PDTRACE2"                       8 bytes
//	header  numCompute int32 | numStaging int32 | dumps int32 |
//	        dropped int64 | count uint32     24 bytes, little endian
//	body    count fixed-size event records   50 bytes each
//	footer  crc32 (IEEE) of header + body    4 bytes
//
// One record is kind u8 | phase u8 | rank i32 | endpoint i32 |
// dump i64 | seq i64 | arg i64 | start i64 | end i64. The trailing
// CRC makes torn or bit-rotted files detectable; the reader never
// trusts the count field beyond what the file length supports.

// ErrPDTRACE1 refuses a recording of the first format, which numbers the
// phases after checkpoint as they were before the journal took it in.
var ErrPDTRACE1 = errors.New("trace: PDTRACE1 recording: its phase numbers predate this reader's")

const (
	binaryMagic  = "PDTRACE2"
	headerSize   = 24
	recordSize   = 50
	maxBinaryLen = 1 << 31 // refuse absurd files before allocating
)

// WriteBinary serializes the recording in PDTRACE2 form.
func WriteBinary(w io.Writer, rec *Recording) error {
	if rec == nil {
		return fmt.Errorf("trace: nil recording")
	}
	buf := make([]byte, 0, len(binaryMagic)+headerSize+len(rec.Events)*recordSize+4)
	buf = append(buf, binaryMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(rec.NumCompute))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(rec.NumStaging))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(rec.Dumps))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(rec.Dropped))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec.Events)))
	for i := range rec.Events {
		buf = appendRecord(buf, &rec.Events[i])
	}
	sum := crc32.ChecksumIEEE(buf[len(binaryMagic):])
	buf = binary.LittleEndian.AppendUint32(buf, sum)
	_, err := w.Write(buf)
	return err
}

// appendRecord encodes one event record.
func appendRecord(buf []byte, e *Event) []byte {
	buf = append(buf, byte(e.Kind), byte(e.Phase))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Rank))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Endpoint))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Dump))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Seq))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Arg))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Start))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(e.End))
	return buf
}

// ReadBinary parses a PDTRACE2 recording. Corrupt input yields an
// error, never a panic, and the CRC is checked before any record is
// decoded.
func ReadBinary(r io.Reader) (*Recording, error) {
	data, err := io.ReadAll(io.LimitReader(r, maxBinaryLen+1))
	if err != nil {
		return nil, fmt.Errorf("trace: read recording: %w", err)
	}
	return DecodeBinary(data)
}

// DecodeBinary parses a PDTRACE2 recording from memory.
func DecodeBinary(data []byte) (*Recording, error) {
	if len(data) > maxBinaryLen {
		return nil, fmt.Errorf("trace: recording exceeds %d bytes", maxBinaryLen)
	}
	if len(data) < len(binaryMagic)+headerSize+4 {
		return nil, fmt.Errorf("trace: recording truncated (%d bytes)", len(data))
	}
	if string(data[:len(binaryMagic)]) == "PDTRACE1" {
		return nil, ErrPDTRACE1
	}
	if string(data[:len(binaryMagic)]) != binaryMagic {
		return nil, fmt.Errorf("trace: bad magic %q", data[:len(binaryMagic)])
	}
	body := data[len(binaryMagic) : len(data)-4]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("trace: checksum mismatch: file %08x, computed %08x", want, got)
	}
	rec := &Recording{
		NumCompute: int(int32(binary.LittleEndian.Uint32(body[0:]))),
		NumStaging: int(int32(binary.LittleEndian.Uint32(body[4:]))),
		Dumps:      int(int32(binary.LittleEndian.Uint32(body[8:]))),
		Dropped:    int64(binary.LittleEndian.Uint64(body[12:])),
	}
	count := binary.LittleEndian.Uint32(body[20:])
	records := body[headerSize:]
	if uint64(len(records)) != uint64(count)*recordSize {
		return nil, fmt.Errorf("trace: count %d does not match %d record bytes", count, len(records))
	}
	if rec.NumCompute < 0 || rec.NumStaging < 0 || rec.Dumps < 0 || rec.Dropped < 0 {
		return nil, fmt.Errorf("trace: negative header field")
	}
	rec.Events = make([]Event, count)
	for i := range rec.Events {
		if err := decodeRecord(records[i*recordSize:(i+1)*recordSize], &rec.Events[i]); err != nil {
			return nil, fmt.Errorf("trace: record %d: %w", i, err)
		}
	}
	return rec, nil
}

// decodeRecord parses one event record, validating the enum fields.
func decodeRecord(b []byte, e *Event) error {
	e.Kind = Kind(b[0])
	e.Phase = Phase(b[1])
	if e.Kind > KindInstant {
		return fmt.Errorf("bad kind %d", b[0])
	}
	if e.Phase == PhaseInvalid || int(e.Phase) >= len(phaseNames) {
		return fmt.Errorf("bad phase %d", b[1])
	}
	e.Rank = int32(binary.LittleEndian.Uint32(b[2:]))
	e.Endpoint = int32(binary.LittleEndian.Uint32(b[6:]))
	e.Dump = int64(binary.LittleEndian.Uint64(b[10:]))
	e.Seq = int64(binary.LittleEndian.Uint64(b[18:]))
	e.Arg = int64(binary.LittleEndian.Uint64(b[26:]))
	e.Start = int64(binary.LittleEndian.Uint64(b[34:]))
	e.End = int64(binary.LittleEndian.Uint64(b[42:]))
	if e.Kind == KindSpan && e.End < e.Start {
		return fmt.Errorf("span ends before it starts")
	}
	return nil
}

// ReadFile loads a PDTRACE2 recording from disk.
func ReadFile(path string) (*Recording, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBinary(f)
}
