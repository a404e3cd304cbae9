package flowctl

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

func newTestFairShare(t *testing.T, capacity int64) *FairShare {
	t.Helper()
	b, err := NewBudget(capacity, 0.9, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFairShare(b)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func waitForWaits(t *testing.T, f *FairShare, id int, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := f.Stats(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Waits >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("tenant %d: %d waits, want %d", id, st.Waits, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFairShareRegistration(t *testing.T) {
	f := newTestFairShare(t, 100)
	if err := f.Register(1, 0); err == nil {
		t.Fatal("weight 0 accepted")
	}
	if err := f.Register(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := f.Register(1, 1); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if _, err := f.Acquire(context.Background(), 99, 10); err == nil {
		t.Fatal("unregistered tenant admitted")
	}
	release, err := f.Acquire(context.Background(), 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Deregister(1); err == nil {
		t.Fatal("deregister succeeded while bytes held")
	}
	release()
	release() // idempotent
	if err := f.Deregister(1); err != nil {
		t.Fatal(err)
	}
	if err := f.Deregister(1); err == nil {
		t.Fatal("double deregister succeeded")
	}
}

func TestFairShareZeroAndNegative(t *testing.T) {
	f := newTestFairShare(t, 10)
	if err := f.Register(1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Acquire(context.Background(), 1, -1); err == nil {
		t.Fatal("negative acquire admitted")
	}
	release, err := f.Acquire(context.Background(), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	release()
	st, err := f.Stats(1)
	if err != nil {
		t.Fatal(err)
	}
	if st.InUseBytes != 0 {
		t.Fatalf("in-use %d after zero acquire", st.InUseBytes)
	}
}

// TestFairShareStarvation is the misbehaving-tenant scenario from the
// serve daemon: a hog fills the entire pot and keeps a deep backlog
// queued, then a second tenant asks for a slice well within its
// weighted share. The moment any bytes free up, the victim's waiter
// must be granted ahead of the hog's entire backlog — the hog cannot
// stall another tenant beyond its weighted share.
func TestFairShareStarvation(t *testing.T) {
	const capacity = 1000
	f := newTestFairShare(t, capacity)
	const hog, victim = 1, 2
	if err := f.Register(hog, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Register(victim, 1); err != nil {
		t.Fatal(err)
	}

	// Hog fills the pot (the idle/work-conserving path lets it run past
	// its 500-byte share while the victim is quiet).
	var heldMu sync.Mutex
	var held []func()
	for i := 0; i < 10; i++ {
		release, err := f.Acquire(context.Background(), hog, 100)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, release)
	}

	// Hog queues a deep backlog behind the full pot.
	const backlog = 50
	var wg sync.WaitGroup
	holdAll := make(chan struct{})
	for i := 0; i < backlog; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			release, err := f.Acquire(context.Background(), hog, 100)
			if err != nil {
				t.Error(err)
				return
			}
			<-holdAll
			release()
		}()
	}
	waitForWaits(t, f, hog, backlog)

	// Victim asks for one slice, far under its 500-byte share.
	victimGranted := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		release, err := f.Acquire(context.Background(), victim, 100)
		if err != nil {
			t.Error(err)
			return
		}
		close(victimGranted)
		<-holdAll
		release()
	}()
	waitForWaits(t, f, victim, 1)

	// Free one hog lease. Weighted FIFO must hand the bytes to the
	// victim (deficit 0/1 vs the hog's 900/1), not the hog's backlog.
	heldMu.Lock()
	release := held[0]
	held = held[0:0:0]
	heldMu.Unlock()
	_ = held
	release()

	select {
	case <-victimGranted:
	case <-time.After(5 * time.Second):
		t.Fatal("victim starved: hog backlog served first")
	}
	vs, err := f.Stats(victim)
	if err != nil {
		t.Fatal(err)
	}
	if vs.Grants != 1 || vs.InUseBytes != 100 {
		t.Fatalf("victim stats: %+v", vs)
	}
	hs, err := f.Stats(hog)
	if err != nil {
		t.Fatal(err)
	}
	if hs.Grants != 10 {
		t.Fatalf("hog granted from backlog past the victim: %+v", hs)
	}

	close(holdAll)
	wg.Wait()
}

// TestFairShareWeightedDrain checks the deficit round-robin: with the
// pot fully held and two tenants queued 3:1 by weight, releasing the
// pot must grant bytes in the weight ratio.
func TestFairShareWeightedDrain(t *testing.T) {
	f := newTestFairShare(t, 4)
	const heavy, light, filler = 1, 2, 3
	for id, w := range map[int]int{heavy: 3, light: 1, filler: 1} {
		if err := f.Register(id, w); err != nil {
			t.Fatal(err)
		}
	}
	releaseAll, err := f.Acquire(context.Background(), filler, 4)
	if err != nil {
		t.Fatal(err)
	}

	hold := make(chan struct{})
	var wg sync.WaitGroup
	for _, id := range []int{heavy, light} {
		for i := 0; i < 6; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				release, err := f.Acquire(ctx, id, 1)
				if err != nil {
					return // drained at test end by cancellation
				}
				<-hold
				release()
			}(id)
		}
	}
	waitForWaits(t, f, heavy, 6)
	waitForWaits(t, f, light, 6)

	releaseAll()
	// The drain ran synchronously inside releaseAll; granted waiters
	// hold until told, so the stats are stable.
	hs, _ := f.Stats(heavy)
	ls, _ := f.Stats(light)
	if hs.Grants != 3 || ls.Grants != 1 {
		t.Fatalf("weighted drain granted heavy=%d light=%d, want 3 and 1", hs.Grants, ls.Grants)
	}

	close(hold)
	wg.Wait()
}

// TestFairShareWithinTenantFIFO: requests of one tenant are served in
// arrival order even when a later, smaller request would fit sooner.
// The sizes (8 then 4 against a pot of 10) make the two grants mutually
// exclusive, so the order channel observes the true grant order.
func TestFairShareWithinTenantFIFO(t *testing.T) {
	f := newTestFairShare(t, 10)
	if err := f.Register(1, 1); err != nil {
		t.Fatal(err)
	}
	releaseAll, err := f.Acquire(context.Background(), 1, 10)
	if err != nil {
		t.Fatal(err)
	}

	order := make(chan string, 2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		release, err := f.Acquire(context.Background(), 1, 8)
		if err != nil {
			t.Error(err)
			return
		}
		order <- "big"
		release()
	}()
	waitForWaits(t, f, 1, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		release, err := f.Acquire(context.Background(), 1, 4)
		if err != nil {
			t.Error(err)
			return
		}
		order <- "small"
		release()
	}()
	waitForWaits(t, f, 1, 2)

	releaseAll()
	wg.Wait()
	if first := <-order; first != "big" {
		t.Fatalf("FIFO violated within tenant: %q granted first", first)
	}
}

func TestFairShareAcquireCancel(t *testing.T) {
	f := newTestFairShare(t, 10)
	if err := f.Register(1, 1); err != nil {
		t.Fatal(err)
	}
	release, err := f.Acquire(context.Background(), 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := f.Acquire(ctx, 1, 5); err == nil {
		t.Fatal("acquire succeeded against a full pot")
	}
	st, _ := f.Stats(1)
	if st.Waits != 1 || st.WaitTime <= 0 {
		t.Fatalf("wait accounting after cancel: %+v", st)
	}
	release()
	// The cancelled waiter must have left the queue: the pot is free.
	release2, err := f.Acquire(context.Background(), 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	release2()
}

// TestFairShareConcurrentChurn hammers the arbiter from many tenants at
// once under -race: every byte admitted is eventually released, and the
// pot drains to zero.
func TestFairShareConcurrentChurn(t *testing.T) {
	f := newTestFairShare(t, 64)
	const tenants = 8
	for id := 0; id < tenants; id++ {
		if err := f.Register(id, 1+id%3); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for id := 0; id < tenants; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				n := int64(1 + (id+i)%16)
				release, err := f.Acquire(context.Background(), id, n)
				if err != nil {
					t.Errorf("tenant %d: %v", id, err)
					return
				}
				release()
			}
		}(id)
	}
	wg.Wait()
	for id := 0; id < tenants; id++ {
		st, err := f.Stats(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.InUseBytes != 0 {
			t.Fatalf("tenant %d still holds %d bytes", id, st.InUseBytes)
		}
		if st.Grants != 100 {
			t.Fatalf("tenant %d grants %d, want 100", id, st.Grants)
		}
		if err := f.Deregister(id); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.Budget().Stats().Used; got != 0 {
		t.Fatalf("budget still holds %d bytes", got)
	}
}

func TestFairShareShareGrowsOnLeave(t *testing.T) {
	f := newTestFairShare(t, 100)
	for id := 1; id <= 4; id++ {
		if err := f.Register(id, 1); err != nil {
			t.Fatal(err)
		}
	}
	st, _ := f.Stats(1)
	if st.ShareBytes != 25 {
		t.Fatalf("share %d with 4 tenants, want 25", st.ShareBytes)
	}
	for id := 2; id <= 4; id++ {
		if err := f.Deregister(id); err != nil {
			t.Fatal(err)
		}
	}
	st, _ = f.Stats(1)
	if st.ShareBytes != 100 {
		t.Fatalf("share %d alone, want 100", st.ShareBytes)
	}
}

func ExampleFairShare() {
	budget, _ := NewBudget(100, 0.9, 0.5)
	f, _ := NewFairShare(budget)
	_ = f.Register(1, 3)
	_ = f.Register(2, 1)
	a, _ := f.Stats(1)
	b, _ := f.Stats(2)
	fmt.Println(a.ShareBytes, b.ShareBytes)
	// Output: 75 25
}

// TestFairShareGiveUpWakesNextWaiter: the fair-share form of a waiter
// that gives up. Three weight-1 tenants share 100 bytes (33 each).
// Tenant 0 holds 60, tenant 1 queues 50, and tenant 2 queues 35 — it
// fits the pot but exceeds its share, so it waits behind the backlog.
// Once tenant 1 gives up, tenant 2 must be granted at once.
func TestFairShareGiveUpWakesNextWaiter(t *testing.T) {
	f := newTestFairShare(t, 100)
	for id := 0; id < 3; id++ {
		if err := f.Register(id, 1); err != nil {
			t.Fatal(err)
		}
	}
	release, err := f.Acquire(context.Background(), 0, 60)
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	ctx1, cancel1 := context.WithCancel(context.Background())
	err1 := make(chan error, 1)
	go func() {
		_, err := f.Acquire(ctx1, 1, 50)
		err1 <- err
	}()
	waitForWaits(t, f, 1, 1)

	err2 := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		release, err := f.Acquire(ctx, 2, 35)
		if err == nil {
			release()
		}
		err2 <- err
	}()
	waitForWaits(t, f, 2, 1)

	cancel1()
	if err := <-err1; err == nil {
		t.Fatal("cancelled tenant 1 was granted")
	}
	if err := <-err2; err != nil {
		t.Fatalf("tenant 2 behind a cancelled waiter: %v (it fits: 60+35 <= 100)", err)
	}
	if st, _ := f.Stats(2); st.Grants != 1 {
		t.Fatalf("tenant 2 stats: %+v", st)
	}
}
