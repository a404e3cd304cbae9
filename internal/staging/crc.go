package staging

// crc32Combine returns the CRC32 (IEEE) of a‖b from crc1 = CRC32(a), crc2 =
// CRC32(b) and n2 = len(b), without reading either: zlib's crc32_combine.
// Appending n2 bytes multiplies a's remainder by x^(8·n2) modulo the
// polynomial, so crc1 is shifted by that power — squared up from the table
// of x^(2^k) — and crc2 added. The bytes are summed once, where they are
// read; this costs O(log n2) 32-bit products.
func crc32Combine(crc1, crc2 uint32, n2 int64) uint32 {
	if n2 <= 0 {
		return crc1
	}
	p := uint32(1) << 31 // x^0: the reflected bit order puts x^0 at the top
	for k := 3; n2 != 0; k, n2 = k+1, n2>>1 {
		if n2&1 != 0 {
			p = gfMul(crcPow2[k%32], p)
		}
	}
	return gfMul(p, crc1) ^ crc2
}

// crcPow2[k] is x^(2^k) modulo the IEEE polynomial, bit-reflected.
var crcPow2 = func() (t [32]uint32) {
	t[0] = 1 << 30 // x^1
	for k := 1; k < len(t); k++ {
		t[k] = gfMul(t[k-1], t[k-1])
	}
	return t
}()

// gfMul returns a·b modulo the IEEE polynomial, both bit-reflected.
func gfMul(a, b uint32) uint32 {
	var p uint32
	for m := uint32(1) << 31; m != 0; m >>= 1 {
		if a&m != 0 {
			p ^= b
		}
		if b&1 != 0 {
			b = b>>1 ^ 0xedb88320
		} else {
			b >>= 1
		}
	}
	return p
}
