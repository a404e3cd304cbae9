package staging

import (
	"bytes"
	"errors"
	"hash/crc32"
	"testing"
)

func TestSealUnsealRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{
		[]byte("particle chunk bytes"),
		{},
		bytes.Repeat([]byte{0xAB}, 1<<16),
	} {
		sealed := Seal(payload)
		if _, err := FramePayload(sealed); err != nil {
			t.Fatalf("sealed frame not recognized: %v", err)
		}
		got, err := Unseal(sealed)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("round trip changed payload")
		}
	}
	if _, err := FramePayload([]byte("not a frame, just bytes")); !errors.Is(err, ErrCorrupt) {
		t.Error("raw bytes recognized as sealed")
	}
}

func TestUnsealDetectsEveryByteFlip(t *testing.T) {
	payload := []byte("every single byte of this frame is covered")
	sealed := Seal(payload)
	for i := range sealed {
		bad := make([]byte, len(sealed))
		copy(bad, sealed)
		bad[i] ^= 0xFF
		if _, err := Unseal(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at byte %d: got %v, want ErrCorrupt", i, err)
		}
	}
	// Truncation is corruption too.
	if _, err := Unseal(sealed[:len(sealed)-1]); !errors.Is(err, ErrCorrupt) {
		t.Error("truncated payload accepted")
	}
	if _, err := Unseal(sealed[:4]); !errors.Is(err, ErrCorrupt) {
		t.Error("truncated header accepted")
	}
}

// TestFramePayloadRejectsReservedBytes: the 48 bytes that fill the seal
// header to a cache line are zero in a sealed frame, and a frame with any
// one of them set is corrupt at the header check, before any payload byte
// is read. A reused frame that held other bytes there is sealed clean.
func TestFramePayloadRejectsReservedBytes(t *testing.T) {
	payload := []byte("reserved header bytes")
	frame := Seal(payload)
	if reserved := SealOverhead - sealFields; reserved != 48 {
		t.Fatalf("%d reserved header bytes, want 48", reserved)
	}
	for i := sealFields; i < SealOverhead; i++ {
		if frame[i] != 0 {
			t.Fatalf("sealed frame's header byte %d is %#02x, not zero", i, frame[i])
		}
		bad := bytes.Clone(frame)
		bad[i] = 1
		if _, err := FramePayload(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("header byte %d set: FramePayload = %v, want ErrCorrupt", i, err)
		}
	}
	reused := bytes.Repeat([]byte{0xA5}, len(frame))
	copy(reused[SealOverhead:], payload)
	SealInPlace(reused, crc32.ChecksumIEEE(payload))
	if !bytes.Equal(reused, frame) {
		t.Error("SealInPlace over a used buffer differs from Seal's frame")
	}
}

func TestSealDoesNotAliasInput(t *testing.T) {
	payload := []byte("mutate me after sealing")
	sealed := Seal(payload)
	payload[0] ^= 0xFF
	if _, err := Unseal(sealed); err != nil {
		t.Fatalf("mutating the input after Seal broke the frame: %v", err)
	}
}

// TestSealInPlaceMatchesSeal: a payload written behind a reserved header,
// its CRC folded block by block as it was written, and sealed where it lies
// is byte-for-byte the frame Seal builds by copy, and the payload bytes are
// not touched. A sum that is not the payload's makes a frame Unseal refuses.
func TestSealInPlaceMatchesSeal(t *testing.T) {
	payload := bytes.Repeat([]byte("in-place "), 1000)
	size, err := FrameSize(len(payload))
	if err != nil || size != SealOverhead+len(payload) {
		t.Fatalf("FrameSize(%d) = %d, %v", len(payload), size, err)
	}
	frame := make([]byte, SealOverhead, size)
	var sum uint32
	for rest := payload; len(rest) > 0; {
		block := rest[:min(len(rest), 777)]
		rest = rest[len(block):]
		frame = append(frame, block...)
		sum = crc32.Update(sum, crc32.IEEETable, frame[len(frame)-len(block):])
	}
	backing := &frame[0]
	SealInPlace(frame, sum)
	if &frame[0] != backing || !bytes.Equal(frame, Seal(payload)) {
		t.Fatal("in-place seal differs from Seal's frame")
	}
	got, err := Unseal(frame)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("Unseal of in-place frame: %v", err)
	}
	if SealOverhead%64 != 0 {
		t.Errorf("SealOverhead %d breaks the payload's 64-byte offsets", SealOverhead)
	}
	SealInPlace(frame, sum^1)
	if _, err := Unseal(frame); !errors.Is(err, ErrCorrupt) {
		t.Errorf("frame sealed with a wrong sum: Unseal = %v, want ErrCorrupt", err)
	}
}

// TestSealLengthOverflowIsNamed checks the size test with a synthetic
// length — no 4 GiB allocation: the last length the 32-bit field holds is
// accepted, the next is ErrFrameTooLarge instead of a wrapped header that
// Unseal would report as corruption.
func TestSealLengthOverflowIsNamed(t *testing.T) {
	const limit = 1<<32 - 1
	if size, err := FrameSize(limit); err != nil || size != SealOverhead+limit {
		t.Fatalf("FrameSize(%d) = %d, %v", limit, size, err)
	}
	if _, err := FrameSize(limit + 1); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("FrameSize(4 GiB) = %v, want ErrFrameTooLarge", err)
	}
}
