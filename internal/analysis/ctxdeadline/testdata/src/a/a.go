package a

import (
	"context"
	"errors"
	"time"
)

func backoff(attempt int) {
	time.Sleep(time.Duration(attempt) * time.Millisecond)
}

func badSleep(try func() error) {
	for { // want `retry loop sleeps between attempts but has no deadline, cancellation, or attempt bound`
		if try() == nil {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func badBackoff(try func() error) {
	for attempt := 0; ; attempt++ { // want `retry loop sleeps between attempts but has no deadline, cancellation, or attempt bound`
		if try() == nil {
			return
		}
		backoff(attempt)
	}
}

func goodAttemptBound(try func() error, max int) {
	for attempt := 0; ; attempt++ {
		if try() == nil || attempt >= max {
			return
		}
		backoff(attempt)
	}
}

func goodDeadline(try func() error, deadline time.Time) {
	for {
		if try() == nil || time.Now().After(deadline) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func goodCancel(ctx context.Context, try func() error) {
	for {
		if try() == nil || ctx.Err() != nil {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func goodConditioned(try func() error, deadline time.Time) {
	for time.Now().Before(deadline) {
		if try() == nil {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// An autoscaler polling for the pool to reach its target with no deadline,
// cancellation, or attempt bound: a crashed joiner stalls the poll forever.
func badScalePoll(active func() int, target int) {
	for { // want `retry loop sleeps between attempts but has no deadline, cancellation, or attempt bound`
		if active() >= target {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// The same scaling-decision poll bounded by a per-epoch attempt budget.
func goodScalePollBounded(active func() int, target, maxPolls int) {
	for attempt := 0; ; attempt++ {
		if active() >= target || attempt >= maxPolls {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// The same poll cancellable through the resize epoch's context.
func goodScalePollCtx(ctx context.Context, active func() int, target int) {
	for {
		if active() >= target || ctx.Err() != nil {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

var (
	errTransient = errors.New("transient")
	errDown      = errors.New("endpoint down")
)

// A writer's fetch-request send that waits out a staging rank's restart
// by retrying while the plan says the rank revives, with no deadline: a
// restart that never completes pins the writer forever.
func badReviveWait(send func() error, revives func() bool) error {
	for attempt := 0; ; attempt++ { // want `retry loop sleeps between attempts but has no deadline, cancellation, or attempt bound`
		err := send()
		if err == nil || !errors.Is(err, errDown) || !revives() {
			return err
		}
		backoff(attempt)
	}
}

// The send's required shape: transients spend the attempt budget, and
// the revive wait gives up at the dump deadline.
func goodReviveWait(send func() error, revives func() bool, maxAttempts int, dumpDeadline time.Duration) error {
	deadline := time.Now().Add(dumpDeadline)
	for attempt := 0; ; attempt++ {
		err := send()
		switch {
		case err == nil:
			return nil
		case errors.Is(err, errTransient):
			if attempt+1 >= maxAttempts {
				return err
			}
		case errors.Is(err, errDown) && revives():
			if time.Now().After(deadline) {
				return err
			}
		default:
			return err
		}
		backoff(attempt)
	}
}

// The same send with the revive wait's deadline check gone: the
// transient case's attempt bound does not bound the revive case, which
// waits out a restart that never completes forever.
func badReviveWaitOneCaseBounded(send func() error, revives func() bool, maxAttempts int) error {
	for attempt := 0; ; attempt++ { // want `retry loop sleeps between attempts but has no deadline, cancellation, or attempt bound`
		err := send()
		switch {
		case err == nil:
			return nil
		case errors.Is(err, errTransient):
			if attempt+1 >= maxAttempts {
				return err
			}
		case errors.Is(err, errDown) && revives():
		default:
			return err
		}
		backoff(attempt)
	}
}

// A deadline test in the first case expression runs on every attempt,
// so it bounds the cases after it.
func goodDeadlineCase(send func() error, deadline time.Time) error {
	for attempt := 0; ; attempt++ {
		err := send()
		switch {
		case time.Now().After(deadline):
			return err
		case err == nil:
			return nil
		case errors.Is(err, errTransient):
		}
		backoff(attempt)
	}
}

// A select's channel operands are evaluated on every attempt: waiting
// on ctx.Done() bounds every clause.
func goodSelectCancel(ctx context.Context, send func() error, retry <-chan struct{}) error {
	for attempt := 0; ; attempt++ {
		if err := send(); err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-retry:
		}
		backoff(attempt)
	}
}

// A staging rank gathering fetch requests that retries an injected
// transient receive with no deadline: a writer that never sends pins
// the rank, and with it the collective dump.
func badRecvRequest(recv func() (any, error)) (any, error) {
	for attempt := 0; ; attempt++ { // want `retry loop sleeps between attempts but has no deadline, cancellation, or attempt bound`
		data, err := recv()
		if errors.Is(err, errTransient) {
			backoff(attempt)
			continue
		}
		return data, err
	}
}

// The gather's required shape: every receive waits at most the time
// left before the dump deadline, and the loop ends when none is left.
func goodRecvRequest(recv func(time.Duration) (any, error), deadline time.Time) (any, error) {
	for attempt := 0; ; attempt++ {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, errTransient
		}
		data, err := recv(remaining)
		if errors.Is(err, errTransient) {
			backoff(attempt)
			continue
		}
		return data, err
	}
}

// The serve daemon's accept loop parking until fair-share admission
// credit frees: sleeping with no bound wedges the accept goroutine for
// good when a tenant never releases its leases.
func badServeAccept(admit func() bool) {
	for { // want `retry loop sleeps between attempts but has no deadline, cancellation, or attempt bound`
		if admit() {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// A serve session's drain loop polling for in-flight queries to finish
// before Leave: unbounded, a stuck querier pins the leave forever.
func badServeDrain(pending func() int) {
	for { // want `retry loop sleeps between attempts but has no deadline, cancellation, or attempt bound`
		if pending() == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// The accept loop's required shape: cancellable through the session
// context so a daemon Close unparks it.
func goodServeAccept(ctx context.Context, admit func() bool) {
	for {
		if admit() || ctx.Err() != nil {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// The drain loop bounded by the leave deadline.
func goodServeDrain(pending func() int, deadline time.Time) {
	for {
		if pending() == 0 || time.Now().After(deadline) {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// badReviveWaitOneCaseBounded written with ifs: the transient branch's
// attempt bound does not bound the revive branch, which backs off and
// retries forever.
func badReviveWaitIf(send func() error, revives func() bool, maxAttempts int) error {
	for attempt := 0; ; attempt++ { // want `retry loop sleeps between attempts but has no deadline, cancellation, or attempt bound`
		err := send()
		if err == nil {
			return nil
		}
		if errors.Is(err, errTransient) {
			if attempt+1 >= maxAttempts {
				return err
			}
		} else if !errors.Is(err, errDown) || !revives() {
			return err
		}
		backoff(attempt)
	}
}

// The same wait with the deadline on the revive branch.
func goodReviveWaitIf(send func() error, revives func() bool, maxAttempts int, deadline time.Time) error {
	for attempt := 0; ; attempt++ {
		err := send()
		if err == nil {
			return nil
		}
		if errors.Is(err, errTransient) {
			if attempt+1 >= maxAttempts {
				return err
			}
		} else if !errors.Is(err, errDown) || !revives() || time.Now().After(deadline) {
			return err
		}
		backoff(attempt)
	}
}
