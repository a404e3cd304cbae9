package queryapp

import (
	"strings"
	"testing"

	"predata/internal/dataspaces"
)

// fillSpace builds a space holding a rows x writers object with
// value = row*1000 + writer.
func fillSpace(t *testing.T, rows, writers uint64) *dataspaces.Space {
	t.Helper()
	space, err := dataspaces.New(dataspaces.Config{
		Servers: 2,
		Domain:  dataspaces.Domain{Dims: []uint64{rows, writers}},
	})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]float64, rows*writers)
	for r := uint64(0); r < rows; r++ {
		for w := uint64(0); w < writers; w++ {
			data[r*writers+w] = float64(r*1000 + w)
		}
	}
	if err := space.Put("obj", 3, []uint64{0, 0}, []uint64{rows, writers}, data); err != nil {
		t.Fatal(err)
	}
	return space
}

func TestRunValidation(t *testing.T) {
	space := fillSpace(t, 8, 2)
	cases := []Config{
		{},
		{Query: space.Get, Domain: []uint64{8}},
		{Query: space.Get, Domain: []uint64{8, 2}, Cores: 0, Queries: 1},
		{Query: space.Get, Domain: []uint64{8, 2}, Cores: 1, Queries: 0},
		{Query: space.Get, Domain: []uint64{8, 2}, Cores: 4, Queries: 4}, // 16 > 8 rows
	}
	for i, cfg := range cases {
		if _, err := Run(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestRunCoversDomainExactly(t *testing.T) {
	const rows, writers = 440, 4
	space := fillSpace(t, rows, writers)
	for _, cores := range []int{1, 2, 4} {
		res, err := Run(Config{
			Query: space.Get, Object: "obj", Version: 3,
			Domain: []uint64{rows, writers},
			Cores:  cores, Queries: 11,
		})
		if err != nil {
			t.Fatalf("cores=%d: %v", cores, err)
		}
		if res.Cells != rows*writers {
			t.Errorf("cores=%d cells %d", cores, res.Cells)
		}
		if res.TotalSeconds <= 0 || res.SetupSeconds < 0 || res.QuerySeconds < 0 {
			t.Errorf("cores=%d result %+v", cores, res)
		}
	}
}

func TestRunMissingObject(t *testing.T) {
	space := fillSpace(t, 8, 2)
	_, err := Run(Config{
		Query: space.Get, Object: "ghost", Version: 0,
		Domain: []uint64{8, 2}, Cores: 2, Queries: 2,
	})
	if err == nil || !strings.Contains(err.Error(), "query") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunUnevenSplits(t *testing.T) {
	// Rows not divisible by cores*queries: coverage must still be exact.
	const rows, writers = 97, 3
	space := fillSpace(t, rows, writers)
	res, err := Run(Config{
		Query: space.Get, Object: "obj", Version: 3,
		Domain: []uint64{rows, writers}, Cores: 3, Queries: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cells != rows*writers {
		t.Errorf("cells %d want %d", res.Cells, rows*writers)
	}
}
