package mpi

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestRunSizeValidation(t *testing.T) {
	if err := Run(0, func(c *Comm) error { return nil }); err == nil {
		t.Fatal("Run(0) should fail")
	}
	if err := Run(-3, func(c *Comm) error { return nil }); err == nil {
		t.Fatal("Run(-3) should fail")
	}
}

func TestRunRankAndSize(t *testing.T) {
	const n = 7
	var seen [n]int32
	err := Run(n, func(c *Comm) error {
		if c.Size() != n {
			return fmt.Errorf("size %d != %d", c.Size(), n)
		}
		atomic.AddInt32(&seen[c.Rank()], 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, cnt := range seen {
		if cnt != 1 {
			t.Errorf("rank %d executed %d times", r, cnt)
		}
	}
}

func TestRunCollectsErrors(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		if c.Rank()%2 == 1 {
			return fmt.Errorf("rank %d failed", c.Rank())
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected joined errors")
	}
	for _, want := range []string{"rank 1 failed", "rank 3 failed"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

func TestRunRecoversPanic(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 1 {
			panic("boom")
		}
		// Rank 0 blocks on a receive that will never be satisfied; the
		// panic on rank 1 must unblock it with an error rather than
		// deadlocking the test.
		_, err := c.Recv(1, 5)
		return err
	})
	if err == nil {
		t.Fatal("expected error from panic")
	}
	if !strings.Contains(err.Error(), "panicked") {
		t.Errorf("error %q does not mention panic", err)
	}
}

func TestSendRecvBasic(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 42, []int{1, 2, 3})
		}
		msg, err := c.Recv(0, 42)
		if err != nil {
			return err
		}
		got := msg.Data.([]int)
		if len(got) != 3 || got[0] != 1 || got[2] != 3 {
			return fmt.Errorf("bad payload %v", got)
		}
		if msg.Src != 0 || msg.Tag != 42 {
			return fmt.Errorf("bad envelope src=%d tag=%d", msg.Src, msg.Tag)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendValidation(t *testing.T) {
	err := Run(1, func(c *Comm) error {
		if err := c.Send(5, 0, nil); err == nil {
			return errors.New("send to out-of-range rank should fail")
		}
		if err := c.Send(0, -2, nil); err == nil {
			return errors.New("send with negative tag should fail")
		}
		if _, err := c.Recv(9, 0); err == nil {
			return errors.New("recv from out-of-range rank should fail")
		}
		if _, err := c.Recv(0, -7); err == nil {
			return errors.New("recv with reserved tag should fail")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvMatchesByTag(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			// Send out of tag order; receiver asks for tag 2 first.
			if err := c.Send(1, 1, "first"); err != nil {
				return err
			}
			return c.Send(1, 2, "second")
		}
		m2, err := c.Recv(0, 2)
		if err != nil {
			return err
		}
		m1, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		if m2.Data.(string) != "second" || m1.Data.(string) != "first" {
			return fmt.Errorf("tag matching wrong: %v %v", m1.Data, m2.Data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvAnySourceAnyTag(t *testing.T) {
	const n = 5
	err := Run(n, func(c *Comm) error {
		if c.Rank() != 0 {
			return c.Send(0, c.Rank()+10, c.Rank())
		}
		seen := map[int]bool{}
		for i := 0; i < n-1; i++ {
			msg, err := c.Recv(AnySource, AnyTag)
			if err != nil {
				return err
			}
			if msg.Tag != msg.Src+10 {
				return fmt.Errorf("tag %d for src %d", msg.Tag, msg.Src)
			}
			seen[msg.Src] = true
		}
		if len(seen) != n-1 {
			return fmt.Errorf("saw %d senders", len(seen))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrier(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 17} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			var phase int32
			err := Run(n, func(c *Comm) error {
				atomic.AddInt32(&phase, 1)
				if err := c.Barrier(); err != nil {
					return err
				}
				if got := atomic.LoadInt32(&phase); got != int32(n) {
					return fmt.Errorf("rank %d passed barrier with phase %d", c.Rank(), got)
				}
				return c.Barrier()
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBcast(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16} {
		for root := 0; root < n; root += max(1, n-1) {
			n, root := n, root
			t.Run(fmt.Sprintf("n=%d root=%d", n, root), func(t *testing.T) {
				err := Run(n, func(c *Comm) error {
					var in []float64
					if c.Rank() == root {
						in = []float64{3.5, -1, 2}
					}
					out, err := Bcast(c, in, root)
					if err != nil {
						return err
					}
					if len(out) != 3 || out[0] != 3.5 || out[1] != -1 || out[2] != 2 {
						return fmt.Errorf("rank %d got %v", c.Rank(), out)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestBcastInvalidRoot(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		_, err := Bcast(c, []int{1}, 7)
		if err == nil {
			return errors.New("invalid root accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceSum(t *testing.T) {
	for _, n := range []int{1, 2, 4, 9, 16} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			err := Run(n, func(c *Comm) error {
				in := []int{c.Rank(), 1}
				out, err := Reduce(c, in, func(a, b int) int { return a + b }, 0)
				if err != nil {
					return err
				}
				if c.Rank() == 0 {
					wantSum := n * (n - 1) / 2
					if out[0] != wantSum || out[1] != n {
						return fmt.Errorf("got %v want [%d %d]", out, wantSum, n)
					}
				} else if out != nil {
					return fmt.Errorf("non-root got %v", out)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAllreduceMax(t *testing.T) {
	const n = 6
	err := Run(n, func(c *Comm) error {
		in := []float64{float64(c.Rank()), float64(-c.Rank())}
		out, err := Allreduce(c, in, func(a, b float64) float64 {
			if a > b {
				return a
			}
			return b
		})
		if err != nil {
			return err
		}
		if out[0] != n-1 || out[1] != 0 {
			return fmt.Errorf("rank %d got %v", c.Rank(), out)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGatherAndAllgather(t *testing.T) {
	const n = 5
	err := Run(n, func(c *Comm) error {
		in := make([]int, c.Rank()) // variable lengths
		for i := range in {
			in[i] = c.Rank()*100 + i
		}
		rows, err := Gather(c, in, 2)
		if err != nil {
			return err
		}
		if c.Rank() == 2 {
			for r, row := range rows {
				if len(row) != r {
					return fmt.Errorf("row %d has len %d", r, len(row))
				}
				for i, v := range row {
					if v != r*100+i {
						return fmt.Errorf("row %d elem %d = %d", r, i, v)
					}
				}
			}
		}
		all, err := Allgather(c, in)
		if err != nil {
			return err
		}
		for r, row := range all {
			if len(row) != r {
				return fmt.Errorf("allgather row %d has len %d on rank %d", r, len(row), c.Rank())
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoall(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			err := Run(n, func(c *Comm) error {
				send := make([][]int, n)
				for i := range send {
					// Send i copies of rank*10+i to rank i.
					for k := 0; k < i+1; k++ {
						send[i] = append(send[i], c.Rank()*10+i)
					}
				}
				recv, err := Alltoall(c, send)
				if err != nil {
					return err
				}
				for src, row := range recv {
					if len(row) != c.Rank()+1 {
						return fmt.Errorf("from %d got %d items", src, len(row))
					}
					for _, v := range row {
						if v != src*10+c.Rank() {
							return fmt.Errorf("from %d got value %d", src, v)
						}
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

func TestSplit(t *testing.T) {
	const n = 8
	err := Run(n, func(c *Comm) error {
		// Even ranks to color 0, odd to color 1; key reverses order.
		sub, err := c.Split(c.Rank()%2, -c.Rank())
		if err != nil {
			return err
		}
		if sub.Size() != n/2 {
			return fmt.Errorf("sub size %d", sub.Size())
		}
		// Verify reversal: highest parent rank first.
		all, err := Allgather(sub, []int{c.Rank()})
		if err != nil {
			return err
		}
		prev := 1 << 30
		for _, row := range all {
			if row[0] >= prev {
				return fmt.Errorf("order not reversed: %v", all)
			}
			prev = row[0]
		}
		// Sub-communicator collectives must not interfere across colors.
		sum, err := Allreduce(sub, []int{c.Rank()}, func(a, b int) int { return a + b })
		if err != nil {
			return err
		}
		want := 0
		for r := c.Rank() % 2; r < n; r += 2 {
			want += r
		}
		if sum[0] != want {
			return fmt.Errorf("color %d sum %d want %d", c.Rank()%2, sum[0], want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitUndefined(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		color := 0
		if c.Rank() == 2 {
			color = -1
		}
		sub, err := c.Split(color, 0)
		if err != nil {
			return err
		}
		if c.Rank() == 2 {
			if sub != nil {
				return errors.New("negative color should yield nil comm")
			}
			return nil
		}
		if sub.Size() != 2 {
			return fmt.Errorf("sub size %d", sub.Size())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDup(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		dup, err := c.Dup()
		if err != nil {
			return err
		}
		// A message sent on dup must not be receivable on c: send on dup,
		// then exchange on c with a distinct payload and check we get the
		// right one.
		if c.Rank() == 0 {
			if err := dup.Send(1, 7, "dup"); err != nil {
				return err
			}
			if err := c.Send(1, 7, "orig"); err != nil {
				return err
			}
		}
		if c.Rank() == 1 {
			m, err := c.Recv(0, 7)
			if err != nil {
				return err
			}
			if m.Data.(string) != "orig" {
				return fmt.Errorf("comm got %q", m.Data)
			}
			m, err = dup.Recv(0, 7)
			if err != nil {
				return err
			}
			if m.Data.(string) != "dup" {
				return fmt.Errorf("dup got %q", m.Data)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDistributedSortProperty uses the runtime end-to-end: a random vector
// is partitioned across ranks, sorted with an all-to-all bucket exchange,
// and the concatenation must equal the sequentially sorted input.
func TestDistributedSortProperty(t *testing.T) {
	f := func(seed int64) bool {
		const n = 4
		rng := rand.New(rand.NewSource(seed))
		total := 64 + rng.Intn(256)
		input := make([]int, total)
		for i := range input {
			input[i] = rng.Intn(1000)
		}
		out := make([][]int, n)
		err := Run(n, func(c *Comm) error {
			lo := c.Rank() * total / n
			hi := (c.Rank() + 1) * total / n
			local := append([]int(nil), input[lo:hi]...)
			send := make([][]int, n)
			for _, v := range local {
				dst := v * n / 1000
				if dst >= n {
					dst = n - 1
				}
				send[dst] = append(send[dst], v)
			}
			recv, err := Alltoall(c, send)
			if err != nil {
				return err
			}
			var mine []int
			for _, row := range recv {
				mine = append(mine, row...)
			}
			sort.Ints(mine)
			out[c.Rank()] = mine
			return nil
		})
		if err != nil {
			t.Log(err)
			return false
		}
		var got []int
		for _, part := range out {
			got = append(got, part...)
		}
		want := append([]int(nil), input...)
		sort.Ints(want)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBarrier8(b *testing.B) {
	b.ReportAllocs()
	err := Run(8, func(c *Comm) error {
		for i := 0; i < b.N; i++ {
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkAllreduce16(b *testing.B) {
	const n = 1024
	b.ReportAllocs()
	b.SetBytes(n * 8)
	err := Run(16, func(c *Comm) error {
		in := make([]float64, n)
		for i := 0; i < b.N; i++ {
			if _, err := Allreduce(c, in, func(a, b float64) float64 { return a + b }); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func TestCollectiveTypeMismatches(t *testing.T) {
	// A receiver expecting []float64 while the root broadcast []int must
	// fail cleanly on the mismatched ranks.
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			// Send an []int payload under the Bcast's collective tag by
			// performing a Bcast of ints; rank 1 decodes as float64.
			_, err := Bcast(c, []int{1, 2}, 0)
			return err
		}
		_, err := Bcast[float64](c, nil, 0)
		if err == nil {
			return fmt.Errorf("type mismatch accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceLengthMismatch(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		in := []int{1}
		if c.Rank() == 1 {
			in = []int{1, 2} // wrong length
		}
		_, err := Reduce(c, in, func(a, b int) int { return a + b }, 0)
		if c.Rank() == 0 && err == nil {
			return fmt.Errorf("length mismatch accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallWrongBufferCount(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			if _, err := Alltoall(c, [][]int{{1}}); err == nil {
				return fmt.Errorf("short send list accepted")
			}
			// Recover the collective sequence for rank 1's exchange.
			return c.Send(1, 0, nil)
		}
		_, err := c.Recv(0, 0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}
