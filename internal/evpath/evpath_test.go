package evpath

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestSourceToTerminal(t *testing.T) {
	m := NewManager()
	var got []int64
	var mu sync.Mutex
	sink, err := m.NewTerminalStone(func(e *Event) error {
		mu.Lock()
		got = append(got, e.Data.(int64))
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	src, err := m.NewPassStone()
	if err != nil {
		t.Fatal(err)
	}
	if err := src.LinkTo(sink); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		if err := src.Submit(&Event{Data: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("delivered %d events", len(got))
	}
	// In-order delivery through a single chain.
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("event %d = %d", i, v)
		}
	}
	if s := src.Stats(); s.In != 100 || s.Out != 100 {
		t.Errorf("source stats %+v", s)
	}
	if s := sink.Stats(); s.In != 100 || s.Out != 100 {
		t.Errorf("sink stats %+v", s)
	}
}

func TestFilterStone(t *testing.T) {
	m := NewManager()
	var count int64
	sink, _ := m.NewTerminalStone(func(e *Event) error {
		atomic.AddInt64(&count, 1)
		return nil
	})
	filter, err := m.NewFilterStone(func(e *Event) bool {
		return e.Attrs["rank"]%2 == 0
	})
	if err != nil {
		t.Fatal(err)
	}
	filter.LinkTo(sink)
	for r := int64(0); r < 10; r++ {
		if err := filter.Submit(&Event{Attrs: map[string]int64{"rank": r}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("delivered %d events, want 5", count)
	}
	if s := filter.Stats(); s.Dropped != 5 {
		t.Errorf("filter stats %+v", s)
	}
}

func TestTransformStone(t *testing.T) {
	m := NewManager()
	var sum int64
	sink, _ := m.NewTerminalStone(func(e *Event) error {
		atomic.AddInt64(&sum, e.Data.(int64))
		return nil
	})
	double, err := m.NewTransformStone(func(e *Event) (*Event, error) {
		return &Event{Data: e.Data.(int64) * 2}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	double.LinkTo(sink)
	for i := int64(1); i <= 10; i++ {
		double.Submit(&Event{Data: i})
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if sum != 110 {
		t.Fatalf("sum %d want 110", sum)
	}
}

func TestSplitFanOut(t *testing.T) {
	m := NewManager()
	var a, b int64
	sinkA, _ := m.NewTerminalStone(func(e *Event) error { atomic.AddInt64(&a, 1); return nil })
	sinkB, _ := m.NewTerminalStone(func(e *Event) error { atomic.AddInt64(&b, 1); return nil })
	split, _ := m.NewPassStone()
	split.LinkTo(sinkA)
	split.LinkTo(sinkB)
	for i := 0; i < 25; i++ {
		split.Submit(&Event{})
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if a != 25 || b != 25 {
		t.Fatalf("fan-out delivered %d/%d", a, b)
	}
}

func TestChain(t *testing.T) {
	// source -> filter(rank<8) -> transform(x10) -> terminal
	m := NewManager()
	var got []int64
	var mu sync.Mutex
	sink, _ := m.NewTerminalStone(func(e *Event) error {
		mu.Lock()
		got = append(got, e.Data.(int64))
		mu.Unlock()
		return nil
	})
	xform, _ := m.NewTransformStone(func(e *Event) (*Event, error) {
		return &Event{Attrs: e.Attrs, Data: e.Data.(int64) * 10}, nil
	})
	filter, _ := m.NewFilterStone(func(e *Event) bool { return e.Attrs["rank"] < 8 })
	src, _ := m.NewPassStone()
	src.LinkTo(filter)
	filter.LinkTo(xform)
	xform.LinkTo(sink)
	for r := int64(0); r < 16; r++ {
		src.Submit(&Event{Attrs: map[string]int64{"rank": r}, Data: r})
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 {
		t.Fatalf("delivered %d events", len(got))
	}
	for i, v := range got {
		if v != int64(i)*10 {
			t.Fatalf("event %d = %d", i, v)
		}
	}
}

func TestTerminalErrorSurfaces(t *testing.T) {
	m := NewManager()
	sink, _ := m.NewTerminalStone(func(e *Event) error {
		return errors.New("handler exploded")
	})
	sink.Submit(&Event{})
	err := m.Close()
	if err == nil || sink.Err() == nil {
		t.Fatalf("handler error not surfaced: close=%v stone=%v", err, sink.Err())
	}
}

func TestTransformErrorSurfaces(t *testing.T) {
	m := NewManager()
	sink, _ := m.NewTerminalStone(func(e *Event) error { return nil })
	bad, _ := m.NewTransformStone(func(e *Event) (*Event, error) {
		return nil, errors.New("cannot transform")
	})
	bad.LinkTo(sink)
	bad.Submit(&Event{})
	if err := m.Close(); err == nil {
		t.Fatal("transform error not surfaced")
	}
}

func TestSubmitAfterClose(t *testing.T) {
	m := NewManager()
	s, _ := m.NewPassStone()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(&Event{}); err == nil {
		t.Fatal("submit after close accepted")
	}
	if err := m.Close(); err == nil {
		t.Fatal("double close accepted")
	}
	if _, err := m.NewPassStone(); err == nil {
		t.Fatal("stone creation after close accepted")
	}
}

func TestConstructorValidation(t *testing.T) {
	m := NewManager()
	if _, err := m.NewFilterStone(nil); err == nil {
		t.Error("nil predicate accepted")
	}
	if _, err := m.NewTransformStone(nil); err == nil {
		t.Error("nil transform accepted")
	}
	if _, err := m.NewTerminalStone(nil); err == nil {
		t.Error("nil handler accepted")
	}
	sink, _ := m.NewTerminalStone(func(e *Event) error { return nil })
	if err := sink.LinkTo(sink); err == nil {
		t.Error("terminal stone link accepted")
	}
	src, _ := m.NewPassStone()
	if err := src.LinkTo(nil); err == nil {
		t.Error("nil target accepted")
	}
	other := NewManager()
	foreign, _ := other.NewPassStone()
	if err := src.LinkTo(foreign); err == nil {
		t.Error("cross-manager link accepted")
	}
	m.Close()
	other.Close()
}

func TestBackpressureBlocksProducer(t *testing.T) {
	m := NewManager()
	release := make(chan struct{})
	sink, _ := m.NewTerminalStone(func(e *Event) error {
		<-release
		return nil
	})
	// Fill the sink's queue beyond capacity from a goroutine; the
	// producer must block rather than grow memory unboundedly.
	blocked := make(chan struct{})
	go func() {
		for i := 0; i < defaultCapacity+8; i++ {
			sink.Submit(&Event{})
		}
		close(blocked)
	}()
	select {
	case <-blocked:
		t.Fatal("producer did not block on a stalled consumer")
	case <-time.After(30 * time.Millisecond):
	}
	close(release)
	select {
	case <-blocked:
	case <-time.After(2 * time.Second):
		t.Fatal("producer never unblocked")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentSubmitters(t *testing.T) {
	m := NewManager()
	var count int64
	sink, _ := m.NewTerminalStone(func(e *Event) error {
		atomic.AddInt64(&count, 1)
		return nil
	})
	var wg sync.WaitGroup
	const producers, per = 8, 200
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := sink.Submit(&Event{}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if count != producers*per {
		t.Fatalf("delivered %d of %d", count, producers*per)
	}
}

// TestConservationProperty: any mix of filters and fan-out conserves
// events — delivered = submitted - dropped, per filter path.
func TestConservationProperty(t *testing.T) {
	f := func(n uint8, threshold uint8) bool {
		m := NewManager()
		var delivered int64
		sink, _ := m.NewTerminalStone(func(e *Event) error {
			atomic.AddInt64(&delivered, 1)
			return nil
		})
		filter, _ := m.NewFilterStone(func(e *Event) bool {
			return e.Attrs["v"] < int64(threshold)
		})
		filter.LinkTo(sink)
		var want int64
		for i := 0; i < int(n); i++ {
			v := int64(i % 256)
			if v < int64(threshold) {
				want++
			}
			if err := filter.Submit(&Event{Attrs: map[string]int64{"v": v}}); err != nil {
				return false
			}
		}
		if err := m.Close(); err != nil {
			return false
		}
		return delivered == want &&
			filter.Stats().Dropped == int64(n)-want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkChainThroughput(b *testing.B) {
	m := NewManager()
	sink, _ := m.NewTerminalStone(func(e *Event) error { return nil })
	filter, _ := m.NewFilterStone(func(e *Event) bool { return true })
	filter.LinkTo(sink)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := filter.Submit(&Event{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := m.Close(); err != nil {
		b.Fatal(err)
	}
}
