// Package metrics provides lightweight timing and summary-statistics
// utilities used throughout the PreDatA codebase to produce the per-phase
// wall-clock breakdowns the paper's evaluation reports.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// noCopy enforces the "must not be copied after first use" contract of
// Counter mechanically: embedding it gives the struct Lock
// and Unlock methods, so `go vet`'s copylocks analyzer flags any copy.
// It synchronizes nothing. See golang.org/issues/8005.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// Counter is a cumulative event counter (retries, drops, injected
// faults, ...) safe for concurrent use. The zero value is ready; a
// Counter must not be copied after first use (enforced by `go vet`).
type Counter struct {
	noCopy noCopy
	n      atomic.Int64
}

// Inc adds one event.
func (c *Counter) Inc() { c.n.Add(1) }

// Add accumulates delta events.
func (c *Counter) Add(delta int64) { c.n.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Summary holds order statistics and moments of a sample of float64
// observations (seconds, bytes, counts, ...).
type Summary struct {
	N      int
	Min    float64
	Max    float64
	Mean   float64
	Stddev float64
	P50    float64
	P95    float64
	P99    float64
}

// Summarize computes a Summary of xs. It returns the zero Summary for an
// empty input.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	// Welford's online algorithm: numerically stable and immune to the
	// sum-of-squares overflow that the naive formula hits on large samples.
	var mean, m2 float64
	for i, x := range s {
		delta := x - mean
		mean += delta / float64(i+1)
		m2 += delta * (x - mean)
	}
	variance := m2 / float64(len(s))
	if variance < 0 {
		variance = 0
	}
	return Summary{
		N:      len(s),
		Min:    s[0],
		Max:    s[len(s)-1],
		Mean:   mean,
		Stddev: math.Sqrt(variance),
		P50:    quantile(s, 0.50),
		P95:    quantile(s, 0.95),
		P99:    quantile(s, 0.99),
	}
}

// quantile returns the q-quantile of the sorted sample s using linear
// interpolation between order statistics.
func quantile(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// String renders the summary in a compact single line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.4g mean=%.4g p95=%.4g max=%.4g sd=%.4g",
		s.N, s.Min, s.Mean, s.P95, s.Max, s.Stddev)
}

// Breakdown is a named set of duration buckets, used to report per-phase
// execution-time breakdowns (main loop, I/O blocking, operations, ...).
// It is safe for concurrent use.
type Breakdown struct {
	mu      sync.Mutex
	order   []string
	buckets map[string]time.Duration
}

// NewBreakdown returns an empty breakdown.
func NewBreakdown() *Breakdown {
	return &Breakdown{buckets: make(map[string]time.Duration)}
}

// Add accumulates d into the named bucket, creating it on first use.
func (b *Breakdown) Add(name string, d time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.buckets[name]; !ok {
		b.order = append(b.order, name)
	}
	b.buckets[name] += d
}

// Get returns the accumulated duration of the named bucket.
func (b *Breakdown) Get(name string) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buckets[name]
}

// Names returns bucket names in first-use order.
func (b *Breakdown) Names() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, len(b.order))
	copy(out, b.order)
	return out
}

// Total returns the sum over all buckets.
func (b *Breakdown) Total() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	var t time.Duration
	for _, d := range b.buckets {
		t += d
	}
	return t
}

// String renders the breakdown as "name=dur name=dur ...".
func (b *Breakdown) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := ""
	for i, n := range b.order {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s=%v", n, b.buckets[n])
	}
	return out
}
