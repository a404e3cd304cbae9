package fabric

import (
	"testing"

	"predata/internal/faults"
)

// TestDupStateBoundedUnderSoak is the long dup: soak regression test for
// the control-plane dedup state: thousands of duplicated sends across
// repeated fail/revive cycles must leave every endpoint's (src, seq)
// bookkeeping bounded by the fabric size, not by traffic volume.
func TestDupStateBoundedUnderSoak(t *testing.T) {
	const n = 4
	cfg := quiet(n)
	cfg.Faults = injected(t, faults.Plan{Seed: 11, Dups: []faults.Rule{{Endpoint: faults.AnyEndpoint, Prob: 0.5}}})
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]*Endpoint, n)
	for i := range eps {
		eps[i], _ = f.Endpoint(i)
	}
	const rounds = 40
	const perRound = 50
	for round := 0; round < rounds; round++ {
		for i := 0; i < perRound; i++ {
			src, dst := i%n, (i+1)%n
			if err := eps[src].SendCtl(dst, i); err != nil {
				t.Fatal(err)
			}
			if _, _, err := eps[dst].RecvCtl(); err != nil {
				t.Fatal(err)
			}
		}
		// Bounce one endpoint per round: failing wipes its own state, and
		// the revival retires every peer's entries for the dead stream —
		// pruned, not accumulated.
		victim := round % n
		if err := f.FailEndpoint(victim); err != nil {
			t.Fatal(err)
		}
		if f.CtlStateSize(victim) != 0 {
			t.Fatalf("round %d: failed endpoint %d retains %d state entries",
				round, victim, f.CtlStateSize(victim))
		}
		if err := f.ReviveEndpoint(victim); err != nil {
			t.Fatal(err)
		}
	}
	// ctlSent + lastCtl are at most one entry per peer each, plus at most
	// a handful of stashed duplicates awaiting their flush trigger.
	const bound = 2*(n-1) + 4
	for i := 0; i < n; i++ {
		if got := f.CtlStateSize(i); got > bound {
			t.Errorf("endpoint %d dedup state grew to %d entries (bound %d)", i, got, bound)
		}
	}
	if cfg.Faults.Stats().Duplicates.Load() == 0 {
		t.Fatal("soak injected no duplicates")
	}
}

// TestReviveResetsStreams asserts the fail/revive pair resets the
// (src, seq) streams symmetrically: post-revival traffic in both
// directions is delivered, not absorbed against a stale watermark.
func TestReviveResetsStreams(t *testing.T) {
	cfg := quiet(2)
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := f.Endpoint(0)
	b, _ := f.Endpoint(1)
	for i := 0; i < 5; i++ {
		if err := a.SendCtl(1, i); err != nil {
			t.Fatal(err)
		}
		if _, _, err := b.RecvCtl(); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.FailEndpoint(1); err != nil {
		t.Fatal(err)
	}
	if !f.Failed(1) {
		t.Fatal("endpoint not failed")
	}
	if err := f.ReviveEndpoint(1); err != nil {
		t.Fatal(err)
	}
	if f.Failed(1) {
		t.Fatal("endpoint still failed after revival")
	}
	// Fresh stream in both directions: every message must reach the
	// application even though the pre-failure stream was at seq 5.
	for i := 0; i < 3; i++ {
		if err := a.SendCtl(1, 100+i); err != nil {
			t.Fatal(err)
		}
		src, data, err := b.RecvCtl()
		if err != nil {
			t.Fatal(err)
		}
		if src != 0 || data.(int) != 100+i {
			t.Fatalf("post-revival message %d: got src=%d data=%v", i, src, data)
		}
		if err := b.SendCtl(0, 200+i); err != nil {
			t.Fatal(err)
		}
		if _, data, err := a.RecvCtl(); err != nil || data.(int) != 200+i {
			t.Fatalf("reverse message %d: data=%v err=%v", i, data, err)
		}
	}
}

// TestFailKeepsDeliveredMail asserts a message on the wire does not
// un-arrive because its sender crashed: mail already delivered into a
// peer's mailbox survives FailEndpoint, so a staging rank still sees the
// fetch request of a writer that died mid-dump and can fail the pull
// loudly instead of waiting for a request that never comes.
func TestFailKeepsDeliveredMail(t *testing.T) {
	cfg := quiet(2)
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := f.Endpoint(0)
	b, _ := f.Endpoint(1)
	if err := a.SendCtl(1, "sent before the crash"); err != nil {
		t.Fatal(err)
	}
	if err := f.FailEndpoint(0); err != nil {
		t.Fatal(err)
	}
	src, data, err := b.RecvCtl()
	if err != nil {
		t.Fatal(err)
	}
	if src != 0 || data.(string) != "sent before the crash" {
		t.Fatalf("got src=%d data=%v, want the dead sender's delivered mail", src, data)
	}
}

// TestRevivePrunesDeadStream asserts revival retires the pre-crash
// stream at every peer: undelivered mail from the dead incarnation is
// dropped and the watermarks reset, so nothing collides with the revived
// node's fresh sequence numbers.
func TestRevivePrunesDeadStream(t *testing.T) {
	cfg := quiet(3)
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := f.Endpoint(0)
	b, _ := f.Endpoint(1)
	c, _ := f.Endpoint(2)
	if err := a.SendCtl(2, "doomed"); err != nil {
		t.Fatal(err)
	}
	if err := b.SendCtl(2, "survivor"); err != nil {
		t.Fatal(err)
	}
	if err := f.FailEndpoint(0); err != nil {
		t.Fatal(err)
	}
	if err := f.ReviveEndpoint(0); err != nil {
		t.Fatal(err)
	}
	src, data, err := c.RecvCtl()
	if err != nil {
		t.Fatal(err)
	}
	if src != 1 || data.(string) != "survivor" {
		t.Fatalf("got src=%d data=%v, want the surviving sender's message", src, data)
	}
	// The revived node's fresh stream starts at seq 1 and must deliver.
	if err := a.SendCtl(2, "fresh"); err != nil {
		t.Fatal(err)
	}
	if _, data, err := c.RecvCtl(); err != nil || data.(string) != "fresh" {
		t.Fatalf("post-revival message: data=%v err=%v", data, err)
	}
	// One watermark per live stream; nothing keyed by the dead incarnation.
	if got := f.CtlStateSize(2); got != 2 {
		t.Fatalf("receiver retains %d state entries, want 2", got)
	}
}

// TestDrainCtl empties the mailbox without blocking, absorbs injected
// duplicates, and keeps the watermarks correct for later traffic.
func TestDrainCtl(t *testing.T) {
	cfg := quiet(2)
	cfg.Faults = injected(t, faults.Plan{Seed: 3, Dups: []faults.Rule{{Endpoint: 1, Prob: 1}}})
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := f.Endpoint(0)
	b, _ := f.Endpoint(1)
	const n = 8
	for i := 0; i < n; i++ {
		if err := a.SendCtl(1, i); err != nil {
			t.Fatal(err)
		}
	}
	drained := b.DrainCtl()
	if len(drained) != n {
		t.Fatalf("drained %d messages, want %d (duplicates must be absorbed)", len(drained), n)
	}
	for i, r := range drained {
		if r.Src != 0 || r.Data.(int) != i {
			t.Fatalf("drained[%d] = %+v", i, r)
		}
	}
	if got := b.DrainCtl(); len(got) != 0 {
		t.Fatalf("second drain returned %d messages", len(got))
	}
	// Watermarks advanced during the drain: a late duplicate of the old
	// stream is still absorbed, fresh mail still arrives.
	if err := a.SendCtl(1, n); err != nil {
		t.Fatal(err)
	}
	src, data, err := b.RecvCtl()
	if err != nil {
		t.Fatal(err)
	}
	if src != 0 || data.(int) != n {
		t.Fatalf("post-drain message: src=%d data=%v", src, data)
	}
}
