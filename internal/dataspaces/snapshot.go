package dataspaces

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/bits"
	"sort"
)

// snapObject is the wire form of one stored block. objKey and blockData
// keep their fields unexported for encapsulation; gob needs a flat
// exported mirror, so Snapshot translates on the way out and Restore on
// the way back in. The block's bounds are not on the wire: they follow
// from Block on the restoring space's own grid, and Restore checks the
// cell count against them.
type snapObject struct {
	Name    string
	Version int
	Block   uint64
	Data    []float64
	// Valid is the validity bitmap, bit i of the words for cell i.
	Valid []uint64
}

// Snapshot serializes every stored block into a self-contained byte
// blob, deterministically ordered so identical spaces produce identical
// bytes. Checkpoints embed the blob next to the staging journal; a
// restarted service hands it to Restore to resume with the same shared
// space the crashed incarnation served.
func (s *Space) Snapshot() ([]byte, error) {
	s.smu.RLock()
	defer s.smu.RUnlock()
	var objs []snapObject
	for _, srv := range s.servers {
		srv.mu.Lock()
		for k, bd := range srv.objects {
			o := snapObject{
				Name:    k.name,
				Version: k.version,
				Block:   k.block,
				Data:    append([]float64(nil), bd.data...),
				Valid:   append([]uint64(nil), bd.valid...),
			}
			// Identical contents, identical bytes: a full block stopped
			// keeping its bitmap, and a recycled slab still holds its last
			// tenant's values in the cells nobody has put.
			if bd.set == len(bd.data) {
				wordRange(0, len(o.Data), func(w int, mask uint64) { o.Valid[w] = mask })
			} else {
				for i := range o.Data {
					if o.Valid[i>>6]&(1<<(i&63)) == 0 {
						o.Data[i] = 0
					}
				}
			}
			objs = append(objs, o)
		}
		srv.mu.Unlock()
	}
	sort.Slice(objs, func(i, j int) bool {
		a, b := objs[i], objs[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.Version != b.Version {
			return a.Version < b.Version
		}
		return a.Block < b.Block
	})
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(objs); err != nil {
		return nil, fmt.Errorf("dataspaces: snapshot encode: %w", err)
	}
	return buf.Bytes(), nil
}

// Restore replaces the space's contents with a Snapshot blob, placing
// each block by the current layout. The blob is outside input: an object
// whose block id is not on this space's grid, or whose cells are not that
// block's — a snapshot of another domain or block size — is rejected and
// the space is left as it was. Subscriptions and lock state are
// untouched — they belong to the running process, not the data. An empty
// blob restores nothing.
func (s *Space) Restore(blob []byte) error {
	if len(blob) == 0 {
		return nil
	}
	var objs []snapObject
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&objs); err != nil {
		return fmt.Errorf("dataspaces: snapshot decode: %w", err)
	}
	blocks := make([]*blockData, len(objs))
	for i, o := range objs {
		coord, err := s.blockCoord(o.Block)
		if err != nil {
			return fmt.Errorf("dataspaces: snapshot object %d (%s@%d): %v", i, o.Name, o.Version, err)
		}
		_, ext := s.blockBounds(coord)
		if cells := ext[0] * ext[1] * ext[2]; uint64(len(o.Data)) != cells {
			return fmt.Errorf("dataspaces: snapshot object %d (%s@%d): %d cells, block %d of this space has %d",
				i, o.Name, o.Version, len(o.Data), o.Block, cells)
		}
		if want := (len(o.Data) + 63) / 64; len(o.Valid) != want {
			return fmt.Errorf("dataspaces: snapshot object %d (%s@%d): %d cells but %d validity words, want %d",
				i, o.Name, o.Version, len(o.Data), len(o.Valid), want)
		}
		bd := &blockData{data: o.Data, valid: o.Valid}
		// Bits past the last cell would be counted as cells.
		if tail := len(o.Data) & 63; tail != 0 {
			bd.valid[len(bd.valid)-1] &= 1<<tail - 1
		}
		for _, w := range bd.valid {
			bd.set += bits.OnesCount64(w)
		}
		blocks[i] = bd
	}
	s.smu.Lock()
	defer s.smu.Unlock()
	for i := range s.servers {
		s.servers[i] = newServer()
	}
	for i, o := range objs {
		s.servers[s.serverOf(o.Block)].install(objVer{o.Name, o.Version}, o.Block, blocks[i])
	}
	return nil
}
