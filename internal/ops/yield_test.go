package ops

import (
	"runtime"
	"testing"

	"predata/internal/ffs"
	"predata/internal/staging"
)

// TestReduceKernelsYieldPerBlock: on one P, a goroutine readied just before
// a Reduce kernel starts — as the last rank into a shuffle readies its peer
// — runs before the kernel returns, because the kernel yields after every
// output block (yieldBlock). Without the yield the readied goroutine waits
// out the whole kernel.
func TestReduceKernelsYieldPerBlock(t *testing.T) {
	global := []uint64{64, 64, 64} // 8 slabs of 8 leading rows
	arr := &ffs.Array{Dims: global, Global: global, Offsets: make([]uint64, len(global)),
		Float64: make([]float64, 64*64*64)}
	const k, rows = 8, 8 * 4096 // 8 blocks of ffs.BlockRows(8) rows
	run := &sortedRun{K: k, Rows: make([]float64, rows*k)}
	plan := make([]rowRef, rows)
	for i := range plan {
		plan[i].row = uint32(rows - 1 - i)
	}
	out := make([]float64, rows*k)
	kernels := []struct {
		name string
		run  func() error
	}{
		{"fillSlabs", func() error {
			return fillSlabs(nil, out[:len(arr.Float64)], global, []*staging.View{{Array: arr}}, nil)
		}},
		{"gather", func() error { return gather(out, k, []*sortedRun{run}, plan, nil) }},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, kern := range kernels {
		t.Run(kern.name, func(t *testing.T) {
			parked, wake, ran := make(chan struct{}), make(chan struct{}), make(chan struct{})
			go func() {
				parked <- struct{}{}
				<-wake
				close(ran)
			}()
			<-parked
			close(wake) // readies the goroutine onto this P's runnext
			if err := kern.run(); err != nil {
				t.Fatal(err)
			}
			select {
			case <-ran:
			default:
				t.Fatal("the goroutine readied before the kernel had not run when it returned")
			}
		})
	}
}
