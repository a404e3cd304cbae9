package staging

// End-to-end chunk integrity. A chunk is sealed where it is encoded —
// on the compute client, before the bytes touch the fabric — and
// verified where it is consumed, on the staging server, before anything
// it produces is committed: the pull checks the header (FramePayload), the
// engine the payload (Chunk.Unverified), in the first pass that reads it
// or whole before the first Map. Unseal checks a chunk no engine pass
// reads. The frame travels through fabric.Pull and any hops untouched,
// so a CRC mismatch at verification proves the wire (or the source's
// memory) damaged the payload somewhere along the whole path, not just on
// the last hop.
//
// Frame layout, little-endian:
//
//	magic "PDCHNK2\n" | payload length u32 | crc32(IEEE) of payload u32 | 48 zero bytes | payload
//
// The zero bytes fill the header to one 64-byte cache line, so a payload
// laid out for 64-byte offsets (ffs) keeps them inside the frame. The same magic-then-checksum shape as wal's record logs (PDWAL2: the
// journal and the pass logs) and the trace archive (PDTRACE2).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// ErrCorrupt marks a sealed chunk whose frame or checksum failed
// verification. Classify with errors.Is: the transfer completed but the
// bytes are damaged, so the caller should re-pull (wire corruption
// heals) and, when the source stays bad, shed the chunk rather than
// reduce it.
var ErrCorrupt = errors.New("chunk corrupt")

const sealMagic = "PDCHNK2\n"

// SealOverhead is the length of the seal header — magic, length, checksum,
// zero bytes — that precedes the payload in a frame: one 64-byte cache
// line, so a payload laid out for 64-byte offsets keeps them inside the
// frame.
const SealOverhead = 64

// sealFields is how much of the header the magic, length and checksum use;
// the rest of it is zero.
const sealFields = len(sealMagic) + 8

// ErrFrameTooLarge marks a payload the header's 32-bit length field cannot
// describe. Sealing it anyway would wrap the length, and the receiver
// would take an undamaged chunk for a corrupt one.
var ErrFrameTooLarge = errors.New("staging: chunk payload exceeds the seal frame's 4 GiB limit")

// FrameSize returns the length of the sealed frame for a payload of
// payloadLen bytes, or ErrFrameTooLarge — before anything is allocated.
func FrameSize(payloadLen int) (int, error) {
	if uint64(payloadLen) > math.MaxUint32 {
		return 0, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, payloadLen)
	}
	return SealOverhead + payloadLen, nil
}

// SealInPlace seals a frame whose payload is already in position: frame is
// FrameSize(n) bytes with the payload at frame[SealOverhead:], and the
// header — magic, length, sum, zero bytes — is written into the reserved
// frame[:SealOverhead]. sum is the payload's CRC32 (IEEE), which the caller
// folded with crc32.Update while it wrote the payload, block by block with
// each block still in cache; the payload is not read again. No second
// buffer exists at any point.
func SealInPlace(frame []byte, sum uint32) {
	n := copy(frame, sealMagic)
	binary.LittleEndian.PutUint32(frame[n:], uint32(len(frame)-SealOverhead))
	binary.LittleEndian.PutUint32(frame[n+4:], sum)
	clear(frame[sealFields:SealOverhead])
}

// Seal frames a copy of payload with a magic header, its length, and a CRC
// so the receiver can verify the delivery end-to-end. The input is not
// retained or mutated. It panics on a payload FrameSize rejects; a caller
// that can meet one sizes the frame with FrameSize and seals in place.
func Seal(payload []byte) []byte {
	size, err := FrameSize(len(payload))
	if err != nil {
		panic(err)
	}
	out := make([]byte, size)
	copy(out[SealOverhead:], payload)
	SealInPlace(out, crc32.ChecksumIEEE(payload))
	return out
}

// SealSum returns the payload checksum recorded in a sealed frame's
// header — after a successful Unseal, the CRC32 of the payload itself.
// frame must hold at least SealOverhead bytes.
func SealSum(frame []byte) uint32 {
	return binary.LittleEndian.Uint32(frame[len(sealMagic)+4:])
}

// FramePayload checks a sealed frame's header — magic, length, zero bytes
// — and returns the payload (aliasing buf's memory, no copy) without
// reading it: the caller owes the payload's checksum against SealSum(buf),
// either with Unseal's one pass or folded into its own walk over the bytes.
// A damaged header returns an error wrapping ErrCorrupt.
func FramePayload(buf []byte) ([]byte, error) {
	if len(buf) < SealOverhead {
		return nil, fmt.Errorf("staging: sealed chunk truncated at %d bytes: %w", len(buf), ErrCorrupt)
	}
	if string(buf[:len(sealMagic)]) != sealMagic {
		return nil, fmt.Errorf("staging: sealed chunk magic damaged: %w", ErrCorrupt)
	}
	n := binary.LittleEndian.Uint32(buf[len(sealMagic):])
	payload := buf[SealOverhead:]
	if int(n) != len(payload) {
		return nil, fmt.Errorf("staging: sealed chunk length %d, frame says %d: %w", len(payload), n, ErrCorrupt)
	}
	for i, b := range buf[sealFields:SealOverhead] {
		if b != 0 {
			return nil, fmt.Errorf("staging: sealed chunk header byte %d is %#02x, not zero: %w", sealFields+i, b, ErrCorrupt)
		}
	}
	return payload, nil
}

// Unseal verifies a sealed frame and returns the payload (aliasing
// buf's memory, no copy). A missing magic, a length mismatch, or a
// checksum mismatch returns an error wrapping ErrCorrupt.
func Unseal(buf []byte) ([]byte, error) {
	payload, err := FramePayload(buf)
	if err != nil {
		return nil, err
	}
	if got, want := crc32.ChecksumIEEE(payload), SealSum(buf); got != want {
		return nil, fmt.Errorf("staging: chunk checksum %08x, frame says %08x: %w", got, want, ErrCorrupt)
	}
	return payload, nil
}
