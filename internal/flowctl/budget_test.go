package flowctl

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func mustBudget(t *testing.T, capacity int64) *Budget {
	t.Helper()
	b, err := NewBudget(capacity, 0.9, 0.5)
	if err != nil {
		t.Fatalf("NewBudget: %v", err)
	}
	return b
}

func TestNewBudgetValidation(t *testing.T) {
	cases := []struct {
		name     string
		capacity int64
		high     float64
		low      float64
		wantErr  bool
	}{
		{"ok", 100, 0.9, 0.5, false},
		{"zero capacity", 0, 0.9, 0.5, true},
		{"negative capacity", -1, 0.9, 0.5, true},
		{"high above one", 100, 1.5, 0.5, true},
		{"low above high", 100, 0.5, 0.9, true},
		{"low equals high", 100, 0.5, 0.5, true},
		{"negative low", 100, 0.9, -0.1, true},
		{"full range", 100, 1.0, 0.0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewBudget(tc.capacity, tc.high, tc.low)
			if (err != nil) != tc.wantErr {
				t.Fatalf("NewBudget(%d, %g, %g) err = %v, wantErr %v",
					tc.capacity, tc.high, tc.low, err, tc.wantErr)
			}
		})
	}
}

func TestBudgetAcquireRelease(t *testing.T) {
	b := mustBudget(t, 100)
	ctx := context.Background()

	l1, err := b.Acquire(ctx, 60)
	if err != nil {
		t.Fatalf("Acquire(60): %v", err)
	}
	l2, err := b.Acquire(ctx, 40)
	if err != nil {
		t.Fatalf("Acquire(40): %v", err)
	}
	if got := b.Stats().Used; got != 100 {
		t.Fatalf("used = %d, want 100", got)
	}
	l1.Release()
	l1.Release() // idempotent
	if got := b.Stats().Used; got != 40 {
		t.Fatalf("used after release = %d, want 40", got)
	}
	l2.Release()
	if got := b.Stats().Used; got != 0 {
		t.Fatalf("used after all released = %d, want 0", got)
	}
	if got := b.Stats().Peak; got != 100 {
		t.Fatalf("peak = %d, want 100", got)
	}
}

func TestBudgetAcquireBlocksUntilRelease(t *testing.T) {
	b := mustBudget(t, 100)
	ctx := context.Background()
	l1, err := b.Acquire(ctx, 80)
	if err != nil {
		t.Fatalf("Acquire(80): %v", err)
	}

	got := make(chan error, 1)
	go func() {
		l, err := b.Acquire(ctx, 50)
		if err == nil {
			defer l.Release()
		}
		got <- err
	}()
	select {
	case err := <-got:
		t.Fatalf("Acquire(50) returned early with err=%v; should wait for credits", err)
	case <-time.After(20 * time.Millisecond):
	}
	l1.Release()
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("Acquire(50) after release: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Acquire(50) still blocked after release")
	}
	if s := b.Stats(); s.Throttles != 1 || s.ThrottleWait <= 0 {
		t.Fatalf("throttles=%d wait=%v, want 1 throttle with positive wait", s.Throttles, s.ThrottleWait)
	}
}

func TestBudgetAcquireCtxCancel(t *testing.T) {
	b := mustBudget(t, 100)
	l, err := b.Acquire(context.Background(), 100)
	if err != nil {
		t.Fatalf("Acquire(100): %v", err)
	}
	defer l.Release()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := b.Acquire(ctx, 10); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Acquire under full budget = %v, want DeadlineExceeded", err)
	}
	// The cancelled waiter must be gone: a release should leave no
	// stranded accounting.
	l.Release()
	if got := b.Stats().Used; got != 0 {
		t.Fatalf("used after cancel+release = %d, want 0", got)
	}
}

func TestBudgetFIFONoOvertaking(t *testing.T) {
	b := mustBudget(t, 100)
	ctx := context.Background()
	l1, _ := b.Acquire(ctx, 90)

	// A big waiter queues first.
	bigDone := make(chan struct{})
	go func() {
		l, err := b.Acquire(ctx, 80)
		if err != nil {
			t.Errorf("big Acquire: %v", err)
		} else {
			l.Release()
		}
		close(bigDone)
	}()
	// Wait until the big request is queued.
	for i := 0; i < 1000; i++ {
		if b.Stats().Throttles >= 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// A small TryAcquire must not overtake the queued big waiter even
	// though 10 bytes are free.
	if _, ok := b.TryAcquire(5); ok {
		t.Fatal("TryAcquire overtook a queued FIFO waiter")
	}
	l1.Release()
	select {
	case <-bigDone:
	case <-time.After(2 * time.Second):
		t.Fatal("big waiter never granted")
	}
}

func TestBudgetOversizedGrantWhenIdle(t *testing.T) {
	b := mustBudget(t, 100)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	// A request larger than the whole budget passes alone when idle.
	l, err := b.Acquire(ctx, 250)
	if err != nil {
		t.Fatalf("oversized Acquire on idle budget: %v", err)
	}
	if got := b.Stats().Used; got != 250 {
		t.Fatalf("used = %d, want 250", got)
	}
	l.Release()
}

func TestBudgetOverdraft(t *testing.T) {
	b := mustBudget(t, 100)
	l1, _ := b.Acquire(context.Background(), 100)
	// Overdraft grants immediately even at full budget.
	od := b.Overdraft(30)
	if got := b.Stats().Used; got != 130 {
		t.Fatalf("used with overdraft = %d, want 130", got)
	}
	od.Release()
	l1.Release()
	if got := b.Stats().Peak; got != 130 {
		t.Fatalf("peak = %d, want 130", got)
	}
}

func TestBudgetOverloadedHysteresis(t *testing.T) {
	b := mustBudget(t, 100) // high=90 low=50
	ctx := context.Background()
	if b.Overloaded() {
		t.Fatal("fresh budget reports overloaded")
	}
	l1, _ := b.Acquire(ctx, 60)
	if b.Overloaded() {
		t.Fatal("overloaded below high watermark")
	}
	l2, _ := b.Acquire(ctx, 30) // used=90 >= high
	if !b.Overloaded() {
		t.Fatal("not overloaded at high watermark")
	}
	l2.Release() // used=60: still above low — latch holds
	if !b.Overloaded() {
		t.Fatal("overload latch released above low watermark")
	}
	l1.Release() // used=0 <= low
	if b.Overloaded() {
		t.Fatal("overload latch stuck after draining below low watermark")
	}
}

func TestBudgetZeroAndNegative(t *testing.T) {
	b := mustBudget(t, 100)
	l, err := b.Acquire(context.Background(), 0)
	if err != nil {
		t.Fatalf("Acquire(0): %v", err)
	}
	l.Release() // inert
	if _, err := b.Acquire(context.Background(), -1); err == nil {
		t.Fatal("Acquire(-1) succeeded")
	}
	if got := b.Stats().Used; got != 0 {
		t.Fatalf("used = %d, want 0", got)
	}
}

func TestBudgetConcurrentChurn(t *testing.T) {
	b := mustBudget(t, 1000)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n := int64(50 + (g*37+i*13)%300)
				l, err := b.Acquire(ctx, n)
				if err != nil {
					t.Errorf("goroutine %d: Acquire(%d): %v", g, n, err)
					return
				}
				l.Release()
			}
		}(g)
	}
	wg.Wait()
	if got := b.Stats().Used; got != 0 {
		t.Fatalf("used after churn = %d, want 0", got)
	}
}

// TestBudgetGiveUpWakesNextWaiter: a queue head that gives up must not
// strand the waiter behind it. With 60 of 100 bytes held, a 50-byte
// request queues, then a 30-byte one behind it; cancelling the head
// leaves 30 bytes that fit, so the second waiter is granted at once
// rather than waiting out its own deadline.
func TestBudgetGiveUpWakesNextWaiter(t *testing.T) {
	b := mustBudget(t, 100)
	held, err := b.Acquire(context.Background(), 60)
	if err != nil {
		t.Fatal(err)
	}
	defer held.Release()

	headCtx, cancelHead := context.WithCancel(context.Background())
	headErr := make(chan error, 1)
	go func() {
		_, err := b.Acquire(headCtx, 50)
		headErr <- err
	}()
	waitForThrottles(t, b, 1)

	type result struct {
		lease *Lease
		err   error
	}
	second := make(chan result, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		l, err := b.Acquire(ctx, 30)
		second <- result{l, err}
	}()
	waitForThrottles(t, b, 2)

	cancelHead()
	if err := <-headErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled head returned %v, want Canceled", err)
	}
	r := <-second
	if r.err != nil {
		t.Fatalf("waiter behind a cancelled head: %v (it fits: 60+30 <= 100)", r.err)
	}
	r.lease.Release()
	if got := b.Stats().Used; got != 60 {
		t.Fatalf("used = %d, want 60", got)
	}
}

func waitForThrottles(t *testing.T, b *Budget, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for b.Stats().Throttles < want {
		if time.Now().After(deadline) {
			t.Fatalf("%d throttles, want %d", b.Stats().Throttles, want)
		}
		time.Sleep(time.Millisecond)
	}
}
