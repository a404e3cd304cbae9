package bp

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestReadVarMatchesReferenceProperty: a random 2D tiling written as
// chunks must read back as the reference array, element for element.
func TestReadVarMatchesReferenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nx := 4 + rng.Intn(12)
		ny := 4 + rng.Intn(12)
		ref := make([]float64, nx*ny)
		for i := range ref {
			ref[i] = rng.Float64()
		}
		fs := newFS(t)
		w, err := CreateWriter(fs, "p.bp", 4)
		if err != nil {
			return false
		}
		// Random rectangular tiling: split x into bands, each band into
		// y-tiles.
		rank := 0
		for x := 0; x < nx; {
			bw := 1 + rng.Intn(nx-x)
			for y := 0; y < ny; {
				bh := 1 + rng.Intn(ny-y)
				tile := make([]float64, bw*bh)
				for dx := 0; dx < bw; dx++ {
					for dy := 0; dy < bh; dy++ {
						tile[dx*bh+dy] = ref[(x+dx)*ny+y+dy]
					}
				}
				_, err := w.WritePG(rank, 0, []VarChunk{{
					Name: "v", Dims: []uint64{uint64(bw), uint64(bh)},
					Global:  []uint64{uint64(nx), uint64(ny)},
					Offsets: []uint64{uint64(x), uint64(y)},
					Data:    tile,
				}})
				if err != nil {
					return false
				}
				rank++
				y += bh
			}
			x += bw
		}
		if _, err := w.Close(); err != nil {
			return false
		}
		r, err := OpenReader(fs, "p.bp")
		if err != nil {
			return false
		}
		got, dims, _, err := r.ReadVar("v", 0)
		if err != nil || len(dims) != 2 || dims[0] != uint64(nx) || dims[1] != uint64(ny) {
			return false
		}
		for i := range ref {
			if got[i] != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
