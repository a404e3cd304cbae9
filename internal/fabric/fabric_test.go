package fabric

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"predata/internal/faults"
)

// quiet is the default fabric: no fault injector, no tracer.
func quiet(n int) Config { return DefaultConfig(n) }

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Endpoints: 0, LinkBandwidth: 1}); err == nil {
		t.Error("zero endpoints accepted")
	}
	if _, err := New(Config{Endpoints: 1, LinkBandwidth: 0}); err == nil {
		t.Error("zero bandwidth accepted")
	}
}

func TestEndpointRange(t *testing.T) {
	f, _ := New(quiet(2))
	if _, err := f.Endpoint(-1); err == nil {
		t.Error("negative endpoint accepted")
	}
	if _, err := f.Endpoint(2); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
	ep, err := f.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	if ep.ID() != 1 {
		t.Errorf("id %d", ep.ID())
	}
}

func TestCtlMessages(t *testing.T) {
	f, _ := New(quiet(2))
	a, _ := f.Endpoint(0)
	b, _ := f.Endpoint(1)
	done := make(chan error, 1)
	go func() {
		src, data, err := b.RecvCtl()
		if err != nil {
			done <- err
			return
		}
		if src != 0 || data.(string) != "fetch request" {
			done <- fmt.Errorf("got src=%d data=%v", src, data)
			return
		}
		done <- nil
	}()
	if err := a.SendCtl(1, "fetch request"); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := a.SendCtl(9, nil); err == nil {
		t.Error("SendCtl to invalid endpoint accepted")
	}
}

// TestExposedUntilAcked: a retained pull leaves the region exposed, so
// its owner may not reuse the buffer; the puller's Ack, or the owner's
// Release, ends that.
func TestExposedUntilAcked(t *testing.T) {
	f, _ := New(quiet(2))
	compute, _ := f.Endpoint(0)
	staging, _ := f.Endpoint(1)
	h := compute.Expose([]byte("frame"))
	if _, _, err := staging.PullRetain(context.Background(), h); err != nil {
		t.Fatal(err)
	}
	if !compute.Exposed(h) || !staging.Exposed(h) {
		t.Fatal("a retained region reads as released")
	}
	if err := staging.Ack(h); err != nil {
		t.Fatal(err)
	}
	if compute.Exposed(h) {
		t.Error("an acked region reads as exposed")
	}
	h2 := compute.Expose([]byte("frame"))
	if err := compute.Release(h2); err != nil {
		t.Fatal(err)
	}
	if compute.Exposed(h2) || compute.Exposed(Handle{Endpoint: 7, ID: h2.ID}) {
		t.Error("a released region, or one outside the fabric, reads as exposed")
	}
}

func TestExposePull(t *testing.T) {
	f, _ := New(quiet(2))
	compute, _ := f.Endpoint(0)
	staging, _ := f.Endpoint(1)
	payload := []byte("packed partial data chunk")
	h := compute.Expose(payload)
	if h.Size != len(payload) {
		t.Errorf("handle size %d", h.Size)
	}
	if compute.ExposedBytes() != int64(len(payload)) {
		t.Errorf("exposed bytes %d", compute.ExposedBytes())
	}
	got, d, err := staging.Pull(h)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("pulled %q", got)
	}
	if d <= 0 {
		t.Errorf("duration %v", d)
	}
	if compute.ExposedBytes() != 0 {
		t.Errorf("region not released: %d bytes", compute.ExposedBytes())
	}
	if compute.PulledBytes() != int64(len(payload)) {
		t.Errorf("pulled bytes %d", compute.PulledBytes())
	}
	// Second pull of the same handle fails.
	if _, _, err := staging.Pull(h); err == nil {
		t.Error("double pull accepted")
	}
}

func TestRelease(t *testing.T) {
	f, _ := New(quiet(2))
	a, _ := f.Endpoint(0)
	b, _ := f.Endpoint(1)
	h := a.Expose(make([]byte, 10))
	if err := b.Release(h); err == nil {
		t.Error("release from non-owner accepted")
	}
	if err := a.Release(h); err != nil {
		t.Fatal(err)
	}
	if err := a.Release(h); err == nil {
		t.Error("double release accepted")
	}
	if _, _, err := b.Pull(h); err == nil {
		t.Error("pull of released region accepted")
	}
	if _, _, err := b.Pull(Handle{Endpoint: 42}); err == nil {
		t.Error("pull from bogus endpoint accepted")
	}
}

func TestPullDurationScalesWithSize(t *testing.T) {
	f, _ := New(quiet(2))
	a, _ := f.Endpoint(0)
	b, _ := f.Endpoint(1)
	hSmall := a.Expose(make([]byte, 1<<10))
	hLarge := a.Expose(make([]byte, 64<<20))
	_, dSmall, err := b.Pull(hSmall)
	if err != nil {
		t.Fatal(err)
	}
	_, dLarge, err := b.Pull(hLarge)
	if err != nil {
		t.Fatal(err)
	}
	if dLarge <= dSmall {
		t.Errorf("large pull %v not slower than small %v", dLarge, dSmall)
	}
	// 64 MB at 2 GB/s is 32 ms.
	want := 32 * time.Millisecond
	if dLarge < want/2 || dLarge > want*2 {
		t.Errorf("64MB pull modeled %v, want ~%v", dLarge, want)
	}
}

func TestScheduledPullDefersDuringBusyPhase(t *testing.T) {
	f, _ := New(quiet(2))
	compute, _ := f.Endpoint(0)
	staging, _ := f.Endpoint(1)
	h := compute.Expose(make([]byte, 1<<20))
	compute.EnterBusyPhase()
	pulled := make(chan struct{})
	go func() {
		if _, _, err := staging.Pull(h); err != nil {
			t.Error(err)
		}
		close(pulled)
	}()
	select {
	case <-pulled:
		t.Fatal("pull completed during busy phase on scheduled fabric")
	case <-time.After(20 * time.Millisecond):
	}
	compute.LeaveBusyPhase()
	select {
	case <-pulled:
	case <-time.After(time.Second):
		t.Fatal("pull did not resume after busy phase")
	}
	if compute.Interference() != 0 {
		t.Errorf("scheduled fabric charged interference %v", compute.Interference())
	}
}

func TestUnscheduledPullChargesInterference(t *testing.T) {
	cfg := quiet(2)
	cfg.Scheduled = false
	cfg.InterferencePenalty = 0.5
	f, _ := New(cfg)
	compute, _ := f.Endpoint(0)
	staging, _ := f.Endpoint(1)
	h := compute.Expose(make([]byte, 8<<20))
	compute.EnterBusyPhase()
	_, d, err := staging.Pull(h)
	if err != nil {
		t.Fatal(err)
	}
	compute.LeaveBusyPhase()
	got := compute.Interference()
	want := time.Duration(float64(d) * 0.5)
	if got < want*9/10 || got > want*11/10 {
		t.Errorf("interference %v want ~%v", got, want)
	}
}

func TestUnscheduledPullOutsideBusyPhaseNoInterference(t *testing.T) {
	cfg := quiet(2)
	cfg.Scheduled = false
	f, _ := New(cfg)
	compute, _ := f.Endpoint(0)
	staging, _ := f.Endpoint(1)
	h := compute.Expose(make([]byte, 1<<20))
	if _, _, err := staging.Pull(h); err != nil {
		t.Fatal(err)
	}
	if compute.Interference() != 0 {
		t.Errorf("idle pull charged interference %v", compute.Interference())
	}
}

func TestNestedBusyPhases(t *testing.T) {
	f, _ := New(quiet(1))
	ep, _ := f.Endpoint(0)
	ep.EnterBusyPhase()
	ep.EnterBusyPhase()
	ep.LeaveBusyPhase()
	ep.LeaveBusyPhase()
	defer func() {
		if recover() == nil {
			t.Error("unbalanced LeaveBusyPhase did not panic")
		}
	}()
	ep.LeaveBusyPhase()
}

func TestShutdownUnblocksReceivers(t *testing.T) {
	f, _ := New(quiet(2))
	ep, _ := f.Endpoint(0)
	errc := make(chan error, 1)
	go func() {
		_, _, err := ep.RecvCtl()
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond)
	f.Shutdown()
	select {
	case err := <-errc:
		if err == nil {
			t.Error("RecvCtl returned nil after shutdown")
		}
	case <-time.After(time.Second):
		t.Fatal("RecvCtl did not unblock on shutdown")
	}
}

// TestConcurrentPullsModeledExactly: a pull's modeled time is latency plus
// bytes over bandwidth, times the degrade factor of the dump its region
// belongs to — whatever else is in flight. Sixteen pulls from eight
// goroutines, half of them inside a degrade window, each get exactly that.
func TestConcurrentPullsModeledExactly(t *testing.T) {
	const n, factor = 8, 8
	inj, err := faults.NewInjector(faults.Plan{Degrades: []faults.Degrade{
		{Endpoint: faults.AnyEndpoint, Window: faults.Window{From: 1, To: 1}, Factor: factor},
	}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := quiet(n + 1)
	cfg.LinkBandwidth = 1 << 30 // 1 MiB moves in 1/1024 s
	cfg.Faults = inj
	f, _ := New(cfg)
	// Writer i exposes (i+1) MiB for dump 0 and the same for dump 1.
	var handles [n][2]Handle
	for i := range handles {
		ep, _ := f.Endpoint(i)
		for dump := range handles[i] {
			ep.SetEpoch(int64(dump))
			handles[i][dump] = ep.Expose(make([]byte, (i+1)<<20))
		}
	}
	staging, _ := f.Endpoint(n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range handles {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			for dump, h := range handles[i] {
				_, d, err := staging.Pull(h)
				if err != nil {
					t.Error(err)
					return
				}
				stretch := time.Duration(1)
				if dump == 1 {
					stretch = factor
				}
				if want := cfg.Latency + time.Duration(i+1)*time.Second*stretch/1024; d != want {
					t.Errorf("writer %d dump %d: modeled %v, want %v", i, dump, d, want)
				}
			}
		}(i)
	}
	close(start)
	wg.Wait()
}

func TestSendCtlAfterShutdownErrors(t *testing.T) {
	f, _ := New(quiet(2))
	a, _ := f.Endpoint(0)
	f.Shutdown()
	err := a.SendCtl(1, "late")
	if err == nil {
		t.Fatal("SendCtl to a shut-down endpoint succeeded")
	}
	if !errors.Is(err, ErrShutdown) {
		t.Errorf("error %v does not wrap ErrShutdown", err)
	}
}

func TestSendCtlToFailedEndpoint(t *testing.T) {
	f, _ := New(quiet(2))
	a, _ := f.Endpoint(0)
	if err := f.FailEndpoint(1); err != nil {
		t.Fatal(err)
	}
	if !f.Failed(1) || f.Failed(0) {
		t.Error("Failed() does not reflect FailEndpoint")
	}
	err := a.SendCtl(1, "dead letter")
	if !errors.Is(err, faults.ErrEndpointDown) {
		t.Errorf("SendCtl to crashed endpoint: %v, want ErrEndpointDown", err)
	}
	if errors.Is(err, ErrShutdown) {
		t.Error("crash error matched ErrShutdown; callers could not tell reroute from abort")
	}
}

func TestShutdownIdempotentConcurrent(t *testing.T) {
	f, _ := New(quiet(4))
	ep, _ := f.Endpoint(2)
	done := make(chan error, 1)
	go func() {
		_, _, err := ep.RecvCtl()
		done <- err
	}()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.Shutdown()
		}()
	}
	wg.Wait()
	f.Shutdown() // and again, after the dust settles
	if err := <-done; !errors.Is(err, ErrShutdown) {
		t.Errorf("receiver unblocked with %v, want ErrShutdown", err)
	}
}

func TestRecvCtlTimeout(t *testing.T) {
	f, _ := New(quiet(2))
	ep, _ := f.Endpoint(0)
	start := time.Now()
	_, _, err := ep.RecvCtlTimeout(20 * time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("idle receive returned %v, want ErrTimeout", err)
	}
	if waited := time.Since(start); waited < 20*time.Millisecond {
		t.Errorf("timed out after only %v", waited)
	}

	// A message arriving before the deadline is delivered normally.
	peer, _ := f.Endpoint(1)
	go func() {
		time.Sleep(5 * time.Millisecond)
		peer.SendCtl(0, "in time")
	}()
	src, data, err := ep.RecvCtlTimeout(5 * time.Second)
	if err != nil || src != 1 || data != "in time" {
		t.Errorf("RecvCtlTimeout = (%d, %v, %v), want (1, in time, nil)", src, data, err)
	}
}

func TestFailEndpointUnblocksReceiver(t *testing.T) {
	f, _ := New(quiet(2))
	ep, _ := f.Endpoint(1)
	done := make(chan error, 1)
	go func() {
		_, _, err := ep.RecvCtl()
		done <- err
	}()
	time.Sleep(2 * time.Millisecond)
	if err := f.FailEndpoint(1); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, faults.ErrEndpointDown) {
			t.Errorf("receiver unblocked with %v, want ErrEndpointDown", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("receiver still blocked after FailEndpoint")
	}
}

func TestFailEndpointDropsRegions(t *testing.T) {
	f, _ := New(quiet(2))
	src, _ := f.Endpoint(0)
	dst, _ := f.Endpoint(1)
	h := src.Expose([]byte("gone"))
	if err := f.FailEndpoint(0); err != nil {
		t.Fatal(err)
	}
	if src.ExposedBytes() != 0 {
		t.Error("crashed endpoint still exposes regions")
	}
	_, _, err := dst.Pull(h)
	if !errors.Is(err, faults.ErrEndpointDown) {
		t.Errorf("Pull from crashed endpoint: %v, want ErrEndpointDown", err)
	}
}

func TestDegradeWindowScalesPullDuration(t *testing.T) {
	inj, err := faults.NewInjector(faults.Plan{Degrades: []faults.Degrade{
		{Endpoint: 0, Window: faults.Window{From: 1, To: 1}, Factor: 8},
	}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := quiet(2)
	cfg.Faults = inj
	f, _ := New(cfg)
	src, _ := f.Endpoint(0)
	dst, _ := f.Endpoint(1)
	pull := func(epoch int64) time.Duration {
		src.SetEpoch(epoch)
		h := src.Expose(make([]byte, 1<<20))
		_, d, err := dst.Pull(h)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	clean, degraded, after := pull(0), pull(1), pull(2)
	if degraded < 6*clean {
		t.Errorf("degraded pull %v not ~8x clean pull %v", degraded, clean)
	}
	if after > 2*clean {
		t.Errorf("pull after the window %v still degraded (clean %v)", after, clean)
	}
}

// TestHugeDegradeSaturates: a degrade factor too large for the modeled time
// to fit a Duration saturates it instead of wrapping it negative.
func TestHugeDegradeSaturates(t *testing.T) {
	inj, err := faults.NewInjector(faults.Plan{Degrades: []faults.Degrade{
		{Endpoint: faults.AnyEndpoint, Window: faults.Window{From: 0, To: -1}, Factor: 1e300},
	}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := quiet(2)
	cfg.Faults = inj
	f, _ := New(cfg)
	src, _ := f.Endpoint(0)
	dst, _ := f.Endpoint(1)
	_, d, err := dst.Pull(src.Expose(make([]byte, 1<<20)))
	if err != nil {
		t.Fatal(err)
	}
	if d != math.MaxInt64 {
		t.Errorf("1 MiB pull under a 1e300 degrade modeled %v, want the largest Duration", d)
	}
}

func TestTransientInjectionOnFabricOps(t *testing.T) {
	inj, err := faults.NewInjector(faults.Plan{Seed: 3, Transients: []faults.Rule{
		{Endpoint: faults.AnyEndpoint, Op: faults.OpAny, Prob: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := quiet(2)
	cfg.Faults = inj
	f, _ := New(cfg)
	a, _ := f.Endpoint(0)
	b, _ := f.Endpoint(1)
	h := a.Expose([]byte("payload"))
	if err := a.SendCtl(1, "x"); !errors.Is(err, faults.ErrTransient) {
		t.Errorf("SendCtl under p=1 transients: %v", err)
	}
	if _, _, err := b.RecvCtl(); !errors.Is(err, faults.ErrTransient) {
		t.Errorf("RecvCtl under p=1 transients: %v", err)
	}
	if _, _, err := b.Pull(h); !errors.Is(err, faults.ErrTransient) {
		t.Errorf("Pull under p=1 transients: %v", err)
	}
	// The transient fired before the region was consumed: still exposed.
	if a.ExposedBytes() == 0 {
		t.Error("transient pull consumed the region; retries could never succeed")
	}
	if inj.Stats().Transients.Load() < 3 {
		t.Errorf("transient counter %d < 3", inj.Stats().Transients.Load())
	}
}

func BenchmarkPull1MB(b *testing.B) {
	f, _ := New(quiet(2))
	a, _ := f.Endpoint(0)
	c, _ := f.Endpoint(1)
	buf := make([]byte, 1<<20)
	b.ReportAllocs()
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := a.Expose(buf)
		if _, _, err := c.Pull(h); err != nil {
			b.Fatal(err)
		}
	}
}
