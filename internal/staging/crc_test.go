package staging

import (
	"bytes"
	"hash/crc32"
	"testing"
)

// FuzzCRC32Combine guards the verify step's arithmetic: a chunk's sum is
// rebuilt from the sums Reduce folded over its arrays and the bytes
// between them, so crc32Combine must give CRC32(a‖b) from CRC32(a),
// CRC32(b) and len(b) for any split. The fuzzed string is cut at two
// points, which may leave pieces empty, and a piece of up to 3 MiB drawn
// from the string goes in at the first cut.
func FuzzCRC32Combine(f *testing.F) {
	f.Add([]byte("particle chunk bytes"), uint16(3), uint16(3), uint32(0))
	f.Add([]byte{}, uint16(0), uint16(0), uint32(0))
	f.Add([]byte("x"), uint16(1), uint16(0), uint32(1<<20+7))
	f.Add(bytes.Repeat([]byte{0xA5}, 300), uint16(17), uint16(250), uint32(3<<20))
	f.Fuzz(func(t *testing.T, data []byte, cut1, cut2 uint16, long uint32) {
		a, b := int(cut1)%(len(data)+1), int(cut2)%(len(data)+1)
		if a > b {
			a, b = b, a
		}
		filler := make([]byte, long%(3<<20+1))
		for i := range filler {
			filler[i] = byte(i*131) ^ byte(len(data))
			if len(data) > 0 {
				filler[i] ^= data[i%len(data)]
			}
		}
		var whole []byte
		var sum uint32
		for _, p := range [][]byte{data[:a], filler, data[a:b], data[b:]} {
			whole = append(whole, p...)
			sum = crc32Combine(sum, crc32.ChecksumIEEE(p), int64(len(p)))
		}
		if want := crc32.ChecksumIEEE(whole); sum != want {
			t.Fatalf("combined %08x, want %08x (cuts %d, %d; %d-byte filler)", sum, want, a, b, len(filler))
		}
	})
}
