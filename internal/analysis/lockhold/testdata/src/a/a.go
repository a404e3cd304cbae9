package a

import (
	"sync"
	"time"
)

type box struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	ch   chan int
	cond *sync.Cond
	val  int
}

func (b *box) badSleep() {
	b.mu.Lock()
	time.Sleep(time.Millisecond) // want `blocking time\.Sleep while b\.mu is held`
	b.mu.Unlock()
}

func (b *box) badRecvUnderDefer() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.val = <-b.ch // want `blocking channel receive while b\.mu is held`
}

func (b *box) badSend() {
	b.rw.RLock()
	b.ch <- b.val // want `blocking channel send while b\.rw is held`
	b.rw.RUnlock()
}

func (b *box) badDoubleLock() {
	b.mu.Lock()
	b.mu.Lock() // want `b\.mu locked again while already held`
	b.mu.Unlock()
	b.mu.Unlock()
}

func (b *box) goodReleaseFirst() {
	b.mu.Lock()
	v := b.val
	b.mu.Unlock()
	time.Sleep(time.Millisecond)
	b.ch <- v
}

func (b *box) goodCondWait() {
	b.mu.Lock()
	for b.val == 0 {
		b.cond.Wait() // Cond.Wait releases the mutex while parked
	}
	b.mu.Unlock()
}

func (b *box) goodGoroutine() {
	b.mu.Lock()
	defer b.mu.Unlock()
	go func() {
		b.ch <- 1 // runs on its own stack, no lock held there
	}()
}

// A lock taken on one branch only is still held where the branches
// join.
func (b *box) badSendAfterOneBranchLock(c bool) {
	if c {
		b.mu.Lock()
	}
	b.ch <- b.val // want `blocking channel send while b\.mu is held`
	if c {
		b.mu.Unlock()
	}
}

// Released on both branches: nothing is held at the send.
func (b *box) goodUnlockBothBranches(c bool) {
	b.mu.Lock()
	if c {
		b.val++
		b.mu.Unlock()
	} else {
		b.mu.Unlock()
	}
	b.ch <- 1
}

func (b *box) badSelect(done chan struct{}) {
	b.mu.Lock()
	defer b.mu.Unlock()
	select { // want `blocking select without default while b\.mu is held`
	case v := <-b.ch:
		b.val = v
	case <-done:
	}
}

// A select with a default never waits: its communications do not block.
func (b *box) goodSelectDefault() {
	b.mu.Lock()
	defer b.mu.Unlock()
	select {
	case b.ch <- b.val:
	case v := <-b.ch:
		b.val = v
	default:
	}
}

func (b *box) badRangeChan() {
	b.mu.Lock()
	for v := range b.ch { // want `blocking range over channel while b\.mu is held`
		b.val += v
	}
	b.mu.Unlock()
}

// continue outer skips the Unlock, so the next row's Lock finds the
// mutex still held.
func (b *box) badLabeledContinue(rows [][]int) {
outer:
	for _, row := range rows {
		b.mu.Lock() // want `b\.mu locked again while already held`
		for _, v := range row {
			if v < 0 {
				continue outer
			}
			b.val += v
		}
		b.mu.Unlock()
	}
}

// A goto retry loop that releases the lock before it waits and takes it
// again at the top.
func (b *box) goodGotoRetry(try func() bool) {
retry:
	b.mu.Lock()
	if !try() {
		b.mu.Unlock()
		time.Sleep(time.Millisecond)
		goto retry
	}
	b.mu.Unlock()
}

// The same loop waiting before it releases: the sleep runs under the
// lock, and the retry takes it a second time.
func (b *box) badGotoRetry(try func() bool) {
retry:
	b.mu.Lock() // want `b\.mu locked again while already held`
	if !try() {
		time.Sleep(time.Millisecond) // want `blocking time\.Sleep while b\.mu is held`
		goto retry
	}
	b.mu.Unlock()
}
