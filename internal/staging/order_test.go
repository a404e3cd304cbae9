package staging

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"predata/internal/mpi"
)

// orderTags is the tag script every Map follows: chunk i emits one value
// under each tag of orderTags[i], in that order. The tags are out of order,
// repeat within a chunk and include a negative one.
var orderTags = [][]int{{4, 0, -2, 1, 4}, {0, 5, 2, 1, 0, -2}}

// orderOp emits the script as strings naming the emitting rank and the
// emission's number on it, and records each Reduce call. With comb set,
// its Combine joins each tag's local values into one, in the order it
// received them.
type orderOp struct {
	comb bool

	mu   sync.Mutex
	seq  int
	tags []int
	got  map[int][]string
}

func (o *orderOp) Name() string { return "order" }

func (o *orderOp) Initialize(*Context, map[string]any) error {
	o.seq, o.tags, o.got = 0, nil, map[int][]string{}
	return nil
}

func (o *orderOp) Map(ctx *Context, chunk *Chunk) error {
	for _, tag := range orderTags[int(chunk.Record["values"].([]float64)[0])] {
		Emit(ctx, tag, fmt.Sprintf("r%d.e%d", ctx.Rank(), o.seq))
		o.seq++
	}
	return nil
}

func (o *orderOp) Combine(tag int, values []string) ([]string, error) {
	if !o.comb {
		return values, nil
	}
	return []string{strings.Join(values, "+")}, nil
}

func (o *orderOp) Reduce(ctx *Context, tag int, values []string) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.tags = append(o.tags, tag)
	o.got[tag] = slices.Clone(values)
	return nil
}

func (o *orderOp) Finalize(*Context) error { return nil }

// orderWant is what the rank owning tag receives: each rank's values of the
// tag, by sender rank and then emission order — joined per sender when
// combined. Ranks 0 and 1 map both chunks of the script; rank 2 maps none.
func orderWant(tag int, comb bool) []string {
	var want []string
	for r := 0; r < 2; r++ {
		var mine []string
		seq := 0
		for _, tags := range orderTags {
			for _, t := range tags {
				if t == tag {
					mine = append(mine, fmt.Sprintf("r%d.e%d", r, seq))
				}
				seq++
			}
		}
		if comb && mine != nil {
			mine = []string{strings.Join(mine, "+")}
		}
		want = append(want, mine...)
	}
	return want
}

// TestReduceOrderContract pins the order Reduce sees, with and without a
// combiner: on each of 3 ranks, its tags ascending, and each tag's values
// by sender rank and then emission order (one Map worker, so emission
// order is the script's).
func TestReduceOrderContract(t *testing.T) {
	const ranks = 3
	for _, comb := range []bool{false, true} {
		t.Run(fmt.Sprintf("combiner=%v", comb), func(t *testing.T) {
			err := mpi.Run(ranks, func(c *mpi.Comm) error {
				var chunks []*Chunk
				if c.Rank() < 2 {
					chunks = []*Chunk{makeChunk(c.Rank(), []float64{0}), makeChunk(c.Rank(), []float64{1})}
				}
				op := &orderOp{comb: comb}
				if _, err := NewEngine(Config{Workers: 1}).ProcessDump(c, feed(chunks), []Operator{op}, nil); err != nil {
					return err
				}
				var wantTags []int
				for _, tags := range orderTags {
					for _, tag := range tags {
						if ((tag%ranks)+ranks)%ranks == c.Rank() && !slices.Contains(wantTags, tag) {
							wantTags = append(wantTags, tag)
						}
					}
				}
				slices.Sort(wantTags)
				if !slices.Equal(op.tags, wantTags) {
					return fmt.Errorf("rank %d reduced tags %v, want %v", c.Rank(), op.tags, wantTags)
				}
				for _, tag := range wantTags {
					if want := orderWant(tag, comb); !slices.Equal(op.got[tag], want) {
						return fmt.Errorf("rank %d tag %d: values %v, want %v", c.Rank(), tag, op.got[tag], want)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// mixedOp emits an int, then a string under Map's second chunk; it reduces
// ints only.
type mixedOp struct{}

func (mixedOp) Name() string                              { return "mixed" }
func (mixedOp) Initialize(*Context, map[string]any) error { return nil }
func (mixedOp) Reduce(*Context, int, []int) error         { return nil }
func (mixedOp) Finalize(*Context) error                   { return nil }
func (mixedOp) Map(ctx *Context, chunk *Chunk) error {
	if chunk.Record["values"].([]float64)[0] == 0 {
		Emit(ctx, 0, 1)
	} else {
		Emit(ctx, 0, "two")
	}
	return nil
}

// unreducedOp emits as mixedOp does, but its own Reduce hides mixedOp's,
// so it is a Reducer of nothing it emits.
type unreducedOp struct{ mixedOp }

func (unreducedOp) Name() string { return "unreduced" }
func (unreducedOp) Reduce()      {}

// TestMixedEmitTypesFailTheDump: an operator that emits a second value
// type in one dump, or values it has no Reducer for, fails the dump on the
// emitting ranks with ErrEmitType, and every rank returns: the failing
// ranks still join the shuffle.
func TestMixedEmitTypesFailTheDump(t *testing.T) {
	for _, op := range []Operator{mixedOp{}, unreducedOp{}} {
		t.Run(op.Name(), func(t *testing.T) {
			err := mpi.Run(3, func(c *mpi.Comm) error {
				var chunks []*Chunk
				if c.Rank() < 2 {
					chunks = []*Chunk{makeChunk(c.Rank(), []float64{0}), makeChunk(c.Rank(), []float64{1})}
				}
				_, err := NewEngine(Config{Workers: 1}).ProcessDump(c, feed(chunks), []Operator{op, &histOp{bins: 2, max: 2}}, nil)
				switch {
				case c.Rank() < 2 && !errors.Is(err, ErrEmitType):
					return fmt.Errorf("rank %d: err = %v, want ErrEmitType", c.Rank(), err)
				case c.Rank() == 2 && err != nil:
					return fmt.Errorf("rank 2 emitted nothing and failed: %v", err)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
