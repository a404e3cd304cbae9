package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented here). Parent is the
// ID of the span that caused it, 0 for a root. Times are nanoseconds
// since the recorder was created.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	Dump     int    `json:"dump"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	// Self is End-Start minus the part of that interval the span's
	// children cover (overlapping children are counted once).
	Self int64 `json:"self_ns"`
}

// spanRecorder keeps spans in memory until write. A nil recorder records
// nothing, so untraced repetitions pay one nil check per call site.
type spanRecorder struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	rep   int
	spans []span
}

func newSpanRecorder(workload string) *spanRecorder {
	return &spanRecorder{workload: workload, epoch: time.Now()}
}

// setRep stamps subsequent spans with the repetition they belong to.
func (r *spanRecorder) setRep(rep int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.rep = rep
	r.mu.Unlock()
}

// begin opens a span and returns its ID (0 from a nil recorder).
func (r *spanRecorder) begin(name string, parent, dump int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Name: name, Workload: r.workload,
		Rep: r.rep, Dump: dump, Start: now, End: now,
	})
	return id
}

// end closes the span begin returned.
func (r *spanRecorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// finish computes every span's self time and returns the spans.
func (r *spanRecorder) finish() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][]int, len(r.spans))
	for i, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range r.spans {
		s := &r.spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return r.spans[kids[a]].Start < r.spans[kids[b]].Start })
		var covered, hi int64 = 0, s.Start
		for _, k := range kids {
			lo, end := r.spans[k].Start, r.spans[k].End
			if lo < hi {
				lo = hi
			}
			if end > s.End {
				end = s.End
			}
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		s.Self = s.End - s.Start - covered
	}
	return r.spans
}

// write stores the spans as one JSON array.
func (r *spanRecorder) write(path string) error {
	data, err := json.Marshal(r.finish())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
