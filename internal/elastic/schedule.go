package elastic

import (
	"context"
	"fmt"
	"sync"
)

// Schedule publishes the active staging rank count per dump — the
// shared state from which clients and servers independently derive the
// same membership, extending the fault plan's shared-derivation idiom
// to elastic resizes. Staging ranks Announce the autoscaler's target
// for the next dump at each boundary (idempotently — every rank
// announces the same deterministic decision); compute clients block in
// ActiveAt until the dump they are about to write has been announced.
//
// All methods are safe for concurrent use.
type Schedule struct {
	mu      sync.Mutex
	counts  map[int64]int
	changed chan struct{}
	err     error
}

// NewSchedule builds a schedule with dump 0 pre-announced at initial
// active ranks.
func NewSchedule(initial int) *Schedule {
	return &Schedule{
		counts:  map[int64]int{0: initial},
		changed: make(chan struct{}),
	}
}

// Announce publishes the active count for a dump. Duplicate
// announcements with the same value are no-ops (every staging rank
// announces each boundary); a conflicting value is an error — it means
// two ranks' autoscalers diverged, which breaks the shared-derivation
// contract.
func (s *Schedule) Announce(dump int64, n int) error {
	if n < 1 {
		return fmt.Errorf("elastic: announce %d active ranks at dump %d (want >= 1)", n, dump)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.counts[dump]; ok {
		if prev != n {
			return fmt.Errorf("elastic: conflicting announcements for dump %d: %d then %d — autoscalers diverged",
				dump, prev, n)
		}
		return nil
	}
	s.counts[dump] = n
	close(s.changed)
	s.changed = make(chan struct{})
	return nil
}

// ActiveAt blocks until the active count for dump has been announced
// (or ctx is done, or the schedule is aborted) and returns it. The wait
// is always bounded by ctx — callers pass a deadline so a dead staging
// pool cannot wedge a writer forever.
func (s *Schedule) ActiveAt(ctx context.Context, dump int64) (int, error) {
	for {
		s.mu.Lock()
		if s.err != nil {
			err := s.err
			s.mu.Unlock()
			return 0, err
		}
		if n, ok := s.counts[dump]; ok {
			s.mu.Unlock()
			return n, nil
		}
		ch := s.changed
		s.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return 0, fmt.Errorf("elastic: waiting for dump %d's active count: %w", dump, ctx.Err())
		}
	}
}

// Abort poisons the schedule: every pending and future ActiveAt returns
// err. Idempotent; the first error wins. RunElastic calls it when a
// rank fails so writers blocked on future dumps fail fast instead of
// waiting out their deadlines.
func (s *Schedule) Abort(err error) {
	if err == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.err = err
	close(s.changed)
	s.changed = make(chan struct{})
}
