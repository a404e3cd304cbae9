package fabric

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"predata/internal/faults"
	"predata/internal/staging"
)

func injected(t *testing.T, plan faults.Plan) *faults.Injector {
	t.Helper()
	in, err := faults.NewInjector(plan)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestCtlDupDelivery is the dup: regression test: with certain
// duplication armed, every control message is delivered to the
// application exactly once, in order per sender, and the injected
// duplicates are counted as absorbed.
func TestCtlDupDelivery(t *testing.T) {
	cfg := quiet(2)
	cfg.Faults = injected(t, faults.Plan{Seed: 7, Dups: []faults.Rule{{Endpoint: 1, Prob: 1}}})
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := f.Endpoint(0)
	b, _ := f.Endpoint(1)
	const n = 16
	for i := 0; i < n; i++ {
		if err := a.SendCtl(1, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		src, data, err := b.RecvCtl()
		if err != nil {
			t.Fatal(err)
		}
		if src != 0 || data.(int) != i {
			t.Fatalf("message %d: got src=%d data=%v (duplicate or reorder leaked)", i, src, data)
		}
	}
	st := cfg.Faults.Stats()
	if st.Duplicates.Load() == 0 {
		t.Fatal("no duplicates injected despite prob 1")
	}
	// All but the final stashed duplicate (which nothing flushed) were
	// delivered late and absorbed by the receiver's (src, seq) dedup.
	if got, want := st.DupDrops.Load(), st.Duplicates.Load()-1; got != want {
		t.Errorf("dedup absorbed %d duplicates, want %d", got, want)
	}
}

// TestDupStashPerStream: a duplicate copy trails its own stream, so only
// its sender's next send delivers it. Another sender's traffic to the same
// endpoint leaves it stashed, and a seeded run absorbs the same number of
// duplicates however the senders interleave.
func TestDupStashPerStream(t *testing.T) {
	cfg := quiet(3)
	cfg.Faults = injected(t, faults.Plan{Seed: 5, Dups: []faults.Rule{{Endpoint: faults.AnyEndpoint, Prob: 1}}})
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := f.Endpoint(0)
	b, _ := f.Endpoint(1)
	c, _ := f.Endpoint(2)
	recv := func(wantSrc int, want string) {
		t.Helper()
		src, data, err := c.RecvCtl()
		if err != nil || src != wantSrc || data.(string) != want {
			t.Fatalf("got src=%d data=%v err=%v, want %d %q", src, data, err, wantSrc, want)
		}
	}
	absorbed := func(want int64) {
		t.Helper()
		if got := cfg.Faults.Stats().DupDrops.Load(); got != want {
			t.Fatalf("absorbed %d duplicates, want %d", got, want)
		}
	}
	for _, s := range []struct {
		ep   *Endpoint
		data string
	}{{a, "a1"}, {b, "b1"}} {
		if err := s.ep.SendCtl(2, s.data); err != nil {
			t.Fatal(err)
		}
	}
	recv(0, "a1")
	recv(1, "b1")
	absorbed(0) // b's send does not deliver a's copy
	if err := a.SendCtl(2, "a2"); err != nil {
		t.Fatal(err)
	}
	recv(0, "a2")
	absorbed(1) // a's own next send does, behind the original
}

func TestPartitionCutsBothPlanes(t *testing.T) {
	cfg := quiet(3)
	cfg.Faults = injected(t, faults.Plan{Partitions: []faults.Partition{
		{GroupA: []int{0}, GroupB: []int{2}, Window: faults.Window{From: 1, To: 2}},
	}})
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := f.Endpoint(0)
	b, _ := f.Endpoint(1)
	c, _ := f.Endpoint(2)

	// Outside the window the pair communicates.
	a.SetEpoch(0)
	c.SetEpoch(0)
	if err := a.SendCtl(2, "pre"); err != nil {
		t.Fatalf("send before window: %v", err)
	}
	h0 := c.Expose([]byte("dump0"))
	if _, _, err := a.Pull(h0); err != nil {
		t.Fatalf("pull before window: %v", err)
	}

	// Inside the window both planes are cut, bidirectionally; the typed
	// error distinguishes the live-but-unreachable peer from a crash.
	a.SetEpoch(1)
	c.SetEpoch(1)
	if err := a.SendCtl(2, "during"); !errors.Is(err, faults.ErrUnreachable) {
		t.Fatalf("send into partition: %v", err)
	}
	if err := c.SendCtl(0, "reverse"); !errors.Is(err, faults.ErrUnreachable) {
		t.Fatalf("reverse send into partition: %v", err)
	}
	h1 := c.Expose([]byte("dump1"))
	if _, _, err := a.Pull(h1); !errors.Is(err, faults.ErrUnreachable) {
		t.Fatalf("pull into partition: %v", err)
	}
	if errors.Is(a.SendCtl(2, "x"), faults.ErrEndpointDown) {
		t.Fatal("partition misclassified as a crash")
	}
	// A third endpoint on neither side still reaches both.
	if err := b.SendCtl(2, "side"); err != nil {
		t.Fatalf("unpartitioned sender cut: %v", err)
	}
	// The refused pull left the region exposed; after the window heals
	// the same handle delivers.
	if _, _, err := b.Pull(h1); err != nil {
		t.Fatalf("unpartitioned puller cut: %v", err)
	}
	// Four refused operations crossed the cut above (two sends, the
	// misclassification probe, and one pull).
	if cfg.Faults.Stats().Unreachables.Load() != 4 {
		t.Errorf("unreachable refusals %d, want 4", cfg.Faults.Stats().Unreachables.Load())
	}
}

func TestPullRetainAndAck(t *testing.T) {
	f, err := New(quiet(2))
	if err != nil {
		t.Fatal(err)
	}
	src, _ := f.Endpoint(0)
	dst, _ := f.Endpoint(1)
	payload := []byte("retained payload")
	h := src.Expose(payload)

	got1, _, err := dst.PullRetain(context.Background(), h)
	if err != nil {
		t.Fatal(err)
	}
	// The region survives the pull: a second (healing) pull of the same
	// handle succeeds.
	got2, _, err := dst.PullRetain(context.Background(), h)
	if err != nil {
		t.Fatalf("second retained pull: %v", err)
	}
	if !bytes.Equal(got1, payload) || !bytes.Equal(got2, payload) {
		t.Fatal("retained pulls corrupted data")
	}
	if src.ExposedBytes() != int64(len(payload)) {
		t.Errorf("region released before ack: %d bytes exposed", src.ExposedBytes())
	}
	if err := dst.Ack(h); err != nil {
		t.Fatal(err)
	}
	if src.ExposedBytes() != 0 {
		t.Errorf("ack left %d bytes exposed", src.ExposedBytes())
	}
	// A second ack of the same region is a no-op.
	if err := dst.Ack(h); err != nil {
		t.Fatalf("double ack: %v", err)
	}
	if _, _, err := dst.PullRetain(context.Background(), h); err == nil {
		t.Fatal("pull of acked region succeeded")
	}
}

func TestPullSiteCorruptionHealsOnRepull(t *testing.T) {
	cfg := quiet(2)
	cfg.Faults = injected(t, faults.Plan{Seed: 3, Corrupts: []faults.Rule{
		{Endpoint: 0, Op: faults.OpPull, Prob: 0.5},
	}})
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, _ := f.Endpoint(0)
	dst, _ := f.Endpoint(1)
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i)
	}
	h := src.Expose(payload)
	corrupted, clean := 0, 0
	for i := 0; i < 64; i++ {
		got, _, err := dst.PullRetain(context.Background(), h)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(got, payload) {
			clean++
		} else {
			corrupted++
			// Exactly one byte differs — a single injected flip.
			diff := 0
			for j := range got {
				if got[j] != payload[j] {
					diff++
				}
			}
			if diff != 1 {
				t.Fatalf("corrupt delivery differs in %d bytes, want 1", diff)
			}
		}
	}
	if corrupted == 0 || clean == 0 {
		t.Fatalf("p=0.5 wire corruption: %d corrupt, %d clean", corrupted, clean)
	}
	// The region itself stayed intact throughout: wire corruption only
	// damages the delivered copy, so re-pulls heal.
	if cfg.Faults.Stats().Corruptions.Load() != int64(corrupted) {
		t.Errorf("corruption counter %d, want %d", cfg.Faults.Stats().Corruptions.Load(), corrupted)
	}
}

func TestSendSiteCorruptionPersists(t *testing.T) {
	cfg := quiet(2)
	cfg.Faults = injected(t, faults.Plan{Seed: 3, Corrupts: []faults.Rule{
		{Endpoint: 0, Op: faults.OpSendCtl, Prob: 1},
	}})
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, _ := f.Endpoint(0)
	dst, _ := f.Endpoint(1)
	payload := []byte("source-corrupted payload bytes")
	orig := make([]byte, len(payload))
	copy(orig, payload)
	h := src.Expose(payload)
	if !bytes.Equal(payload, orig) {
		t.Fatal("Expose mutated the caller's buffer")
	}
	first, _, err := dst.PullRetain(context.Background(), h)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(first, orig) {
		t.Fatal("send-site corruption did not fire at prob 1")
	}
	// Every re-pull returns the same bad bytes: the source copy is damaged.
	again, _, err := dst.PullRetain(context.Background(), h)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, again) {
		t.Fatal("persistent corruption changed between pulls")
	}
}

// TestRetainedPullsShareTheExposedBuffer is the hand-off rule: a pull does
// not copy. Two retained pulls of one handle (a CRC re-pull and the
// delivery it replaces) return the exposed backing array itself, the
// region outlives both until Ack, and the acked buffer stays valid in the
// puller's hands.
func TestRetainedPullsShareTheExposedBuffer(t *testing.T) {
	f, err := New(quiet(2))
	if err != nil {
		t.Fatal(err)
	}
	src, _ := f.Endpoint(0)
	dst, _ := f.Endpoint(1)
	frame := staging.Seal([]byte("one frame, written once"))
	want := append([]byte(nil), frame...)
	h := src.Expose(frame)

	first, _, err := dst.PullRetain(context.Background(), h)
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := dst.PullRetain(context.Background(), h)
	if err != nil {
		t.Fatal(err)
	}
	if &first[0] != &frame[0] || &second[0] != &frame[0] {
		t.Fatal("a fault-free pull copied the region instead of handing it off")
	}
	if src.ExposedBytes() != int64(len(frame)) {
		t.Fatalf("region gone before Ack: %d bytes exposed", src.ExposedBytes())
	}
	if err := dst.Ack(h); err != nil {
		t.Fatal(err)
	}
	if src.ExposedBytes() != 0 {
		t.Fatalf("Ack left %d bytes exposed", src.ExposedBytes())
	}
	if !bytes.Equal(first, want) {
		t.Fatal("pulled frame changed after the region was released")
	}
	// A consuming Pull hands off the same way.
	got, _, err := dst.Pull(src.Expose(frame))
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &frame[0] {
		t.Fatal("consuming pull copied the region")
	}
}

// TestCorruptPullDeliveryIsPrivateCopy: injected wire corruption is the one
// writer of a pulled frame, and it writes a copy. The damaged delivery has
// its own backing array, the region's bytes are untouched, and the re-pull
// returns the region itself and passes Unseal — corruption still heals.
func TestCorruptPullDeliveryIsPrivateCopy(t *testing.T) {
	cfg := quiet(2)
	cfg.Faults = injected(t, faults.Plan{Seed: 3, Corrupts: []faults.Rule{
		{Endpoint: 0, Op: faults.OpPull, Prob: 0.5},
	}})
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, _ := f.Endpoint(0)
	dst, _ := f.Endpoint(1)
	frame := staging.Seal(bytes.Repeat([]byte("payload "), 512))
	want := append([]byte(nil), frame...)
	h := src.Expose(frame)
	damaged := 0
	for i := 0; i < 64; i++ {
		got, _, err := dst.PullRetain(context.Background(), h)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(frame, want) {
			t.Fatalf("pull %d: injected corruption reached the exposed region", i)
		}
		if _, uerr := staging.Unseal(got); uerr != nil {
			damaged++
			if !errors.Is(uerr, staging.ErrCorrupt) {
				t.Fatalf("pull %d: %v", i, uerr)
			}
			if &got[0] == &frame[0] {
				t.Fatalf("pull %d: corrupt delivery aliases the region", i)
			}
			continue
		}
		if &got[0] != &frame[0] {
			t.Fatalf("pull %d: clean delivery is a copy", i)
		}
	}
	if damaged == 0 || damaged == 64 {
		t.Fatalf("p=0.5 wire corruption damaged %d of 64 deliveries", damaged)
	}
}
