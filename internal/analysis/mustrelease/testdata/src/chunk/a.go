// Fixture for the chunkrelease analyzer: staging chunks with a Release
// hook must fire it exactly once on every path.
package a

import (
	"predata/internal/staging"
)

// ---- positive cases ----

// LeakShedPath drops the hook when the chunk is shed.
func LeakShedPath(buf []byte, shed bool) {
	ch, err := staging.DecodeChunk(buf) // want `chunk from staging.DecodeChunk may drop its Release hook on some path`
	if err != nil {
		return
	}
	if shed {
		return
	}
	ch.Release()
}

// LeakDecoderShedPath is LeakShedPath through a stream's Decoder.
func LeakDecoderShedPath(d *staging.Decoder, buf []byte, shed bool) {
	ch, err := d.DecodeChunk(buf) // want `chunk from staging.Decoder.DecodeChunk may drop its Release hook on some path`
	if err != nil {
		return
	}
	if shed {
		return
	}
	ch.Release()
}

// LeakLiteral builds a chunk with a hook and forgets it on one path.
func LeakLiteral(release func(), c bool) {
	ch := staging.Chunk{Timestep: 1, Release: release} // want `chunk from staging.Chunk literal with Release set may drop its Release hook`
	if c {
		return
	}
	ch.Release()
}

// DoubleReleaseBranch fires the hook a second time when c is set.
func DoubleReleaseBranch(buf []byte, c bool) {
	ch, err := staging.DecodeChunk(buf)
	if err != nil {
		return
	}
	ch.Release()
	if c {
		ch.Release() // want `chunk from staging.DecodeChunk may have Release called twice`
	}
}

// UseAfterReleaseRead reads the chunk after its hook fired; under
// pooled buffers that is recycled memory.
func UseAfterReleaseRead(buf []byte) int {
	ch, err := staging.DecodeChunk(buf)
	if err != nil {
		return 0
	}
	ch.Release()
	return ch.WriterRank // want `chunk from staging.DecodeChunk is used after Release`
}

// Discarded never binds the result, so the hook can never fire.
func Discarded(release func()) {
	_ = staging.Chunk{Release: release} // want `result of staging.Chunk literal with Release set is discarded`
}

// ---- negative cases ----

// GuardedRelease is the engine idiom: nil-test the hook, then fire it.
func GuardedRelease(buf []byte) error {
	ch, err := staging.DecodeChunk(buf)
	if err != nil {
		return err
	}
	if ch.Release != nil {
		ch.Release()
	}
	return nil
}

// DeferRelease fires the hook at exit; reading fields before the
// deferred call runs is fine.
func DeferRelease(buf []byte) (int, error) {
	ch, err := staging.DecodeChunk(buf)
	if err != nil {
		return 0, err
	}
	defer ch.Release()
	return ch.WriterRank, nil
}

// Handoff transfers the obligation to the caller.
func Handoff(buf []byte) *staging.Chunk {
	ch, err := staging.DecodeChunk(buf)
	if err != nil {
		return nil
	}
	return ch
}

// Enqueue transfers the obligation across a channel.
func Enqueue(buf []byte, out chan<- *staging.Chunk) error {
	ch, err := staging.DecodeChunk(buf)
	if err != nil {
		return err
	}
	out <- ch
	return nil
}

// HookHandoff hands the hook itself to a scheduler.
func HookHandoff(buf []byte, schedule func(func())) error {
	ch, err := staging.DecodeChunk(buf)
	if err != nil {
		return err
	}
	schedule(ch.Release)
	return nil
}

// BuildAndShip constructs a chunk and immediately ships it.
func BuildAndShip(release func(), out chan<- staging.Chunk) {
	ch := staging.Chunk{Timestep: 2, Release: release}
	out <- ch
}

// NoHook carries no Release hook, so there is nothing to track.
func NoHook(c bool) {
	ch := staging.Chunk{Timestep: 3}
	if c {
		return
	}
	_ = ch.Timestep
}
