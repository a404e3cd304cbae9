// Package poison is the predata_poison build switch, read by every layer
// that reuses memory another reader may still hold: the writer's reclaimed
// frames (predata), the buffers of dropped files (pfs) and the sort's
// released run buffers (ops). Built with -tags predata_poison, each such
// buffer is filled with 0xA5 before it is reused, so a read that outlives
// its buffer fails an oracle instead of reading stale bytes.
package poison

// Fill overwrites b with 0xA5 when the predata_poison tag is set, and does
// nothing otherwise.
func Fill(b []byte) {
	if Enabled {
		for i := range b {
			b[i] = 0xA5
		}
	}
}
