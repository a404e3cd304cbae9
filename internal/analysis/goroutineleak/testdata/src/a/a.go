package a

import (
	"context"
	"fmt"
	"sync"
)

func work(int) {}

func spin() {
	for i := 0; i < 10; i++ {
		work(i)
	}
}

func badFire() {
	go func() { // want `goroutine has no join mechanism`
		work(1)
	}()
}

func badNamed() {
	go spin() // want `goroutine has no join mechanism`
}

// Each iteration has its own it (go 1.22), so the capture aliases nothing.
func goodCapture(items []int) {
	var wg sync.WaitGroup
	for _, it := range items {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(it)
		}()
	}
	wg.Wait()
}

func goodWaitGroup(items []int) {
	var wg sync.WaitGroup
	for _, it := range items {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			work(v)
		}(it)
	}
	wg.Wait()
}

func goodChannel(done chan struct{}) {
	go func() {
		defer close(done)
		work(2)
	}()
}

func goodContext(ctx context.Context, out chan int) {
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case out <- 1:
			}
		}
	}()
}

func goodForeign() {
	go fmt.Println("owned by the stdlib")
}

type shard struct{ cells []int }

// A retiring rank firing its shard drain without any join: the handoff can
// outlive the resize epoch and race the next dump's reads.
func badDrain(shards []shard, move func(shard)) {
	for _, s := range shards {
		go func(sh shard) { // want `goroutine has no join mechanism`
			move(sh)
		}(s)
	}
}

// The same drain joined before the resize epoch is declared complete.
func goodDrainJoined(shards []shard, move func(shard)) {
	var wg sync.WaitGroup
	for _, s := range shards {
		wg.Add(1)
		go func(sh shard) {
			defer wg.Done()
			move(sh)
		}(s)
	}
	wg.Wait()
}

type session struct{ id int }

// The serve daemon's accept loop firing a handler per joining tenant
// with no join: at Close the daemon cannot prove the handlers drained,
// and a late handler races the shard-pool teardown.
func badServeAccept(joins []session, handle func(session)) {
	for _, s := range joins {
		go func(sess session) { // want `goroutine has no join mechanism`
			handle(sess)
		}(s)
	}
}

// A leave path firing the session's eviction flush and returning: the
// flush can outlive the membership epoch it belongs to.
func badServeLeaveFlush(flush func()) {
	go func() { // want `goroutine has no join mechanism`
		flush()
	}()
}

// The accept loop's required shape: every handler joined through a
// WaitGroup the daemon waits on at Close.
func goodServeAccept(joins []session, handle func(session)) {
	var wg sync.WaitGroup
	for _, s := range joins {
		wg.Add(1)
		go func(sess session) {
			defer wg.Done()
			handle(sess)
		}(s)
	}
	wg.Wait()
}

// A serve query-drain worker bounded by the session context: Close
// cancels, the worker exits.
func goodServeDrainWorker(ctx context.Context, queries chan int, serveOne func(int)) {
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case q := <-queries:
				serveOne(q)
			}
		}
	}()
}
