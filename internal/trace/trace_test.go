package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestNilRecorderNoOps(t *testing.T) {
	var r *Recorder
	r.Instant(PhaseRetry, 1, 2, 3, 4, 5) // must not panic
	sp := r.Begin(PhasePull, 1, 2, 3, 4)
	sp.WithDump(7).WithEndpoint(9).End(0) // must not panic
	if r.Snapshot() != nil {
		t.Fatal("nil recorder snapshot not nil")
	}
}

func TestRecordAndSnapshot(t *testing.T) {
	r := New(Config{NumCompute: 4, NumStaging: 2, Dumps: 3})
	r.Instant(PhaseCollective, 5, int(CollBarrier), 0, 0, 11)
	sp := r.Begin(PhaseMap, 4, -1, 0, -1)
	sp.End(42)
	r.Instant(PhaseSpill, 4, 1, 0, -1, 1024)

	rec := r.Snapshot()
	if rec.NumCompute != 4 || rec.NumStaging != 2 || rec.Dumps != 3 {
		t.Fatalf("metadata %d/%d/%d", rec.NumCompute, rec.NumStaging, rec.Dumps)
	}
	if rec.Dropped != 0 {
		t.Fatalf("dropped %d, want 0", rec.Dropped)
	}
	if len(rec.Events) != 3 {
		t.Fatalf("%d events, want 3", len(rec.Events))
	}
	for i := 1; i < len(rec.Events); i++ {
		if rec.Events[i].Start < rec.Events[i-1].Start {
			t.Fatal("snapshot not sorted by start time")
		}
	}
	var coll, span *Event
	for i := range rec.Events {
		switch rec.Events[i].Phase {
		case PhaseCollective:
			coll = &rec.Events[i]
		case PhaseMap:
			span = &rec.Events[i]
		}
	}
	if coll == nil || coll.Kind != KindInstant || coll.Rank != 5 || coll.Endpoint != CollBarrier || coll.Arg != 11 {
		t.Fatalf("collective event %+v", coll)
	}
	if coll.Start != coll.End {
		t.Fatal("instant with Start != End")
	}
	if span == nil || span.Kind != KindSpan || span.Arg != 42 || span.End < span.Start {
		t.Fatalf("span event %+v", span)
	}
}

func TestSpanWithDumpAndEndpoint(t *testing.T) {
	r := New(Config{})
	sp := r.Begin(PhaseRecvCtl, 3, -1, -1, -1)
	sp.WithEndpoint(8).WithDump(2).End(5)
	rec := r.Snapshot()
	if len(rec.Events) != 1 {
		t.Fatalf("%d events", len(rec.Events))
	}
	e := rec.Events[0]
	if e.Endpoint != 8 || e.Dump != 2 || e.Arg != 5 {
		t.Fatalf("event %+v", e)
	}
}

func TestWraparoundCountsDropped(t *testing.T) {
	r := New(Config{Shards: 1, ShardCapacity: 8})
	const n = 100
	for i := 0; i < n; i++ {
		r.Instant(PhaseRetry, 0, -1, -1, int64(i), 0)
	}
	rec := r.Snapshot()
	if len(rec.Events) != 8 {
		t.Fatalf("retained %d events, want ring capacity 8", len(rec.Events))
	}
	if rec.Dropped != n-8 {
		t.Fatalf("dropped %d, want %d", rec.Dropped, n-8)
	}
	// The survivors are the most recent appends.
	for _, e := range rec.Events {
		if e.Seq < n-8 {
			t.Fatalf("stale event seq %d survived wrap", e.Seq)
		}
	}
}

func TestConcurrentAppend(t *testing.T) {
	r := New(Config{Shards: 8, ShardCapacity: 1024})
	const goroutines, perG = 16, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if i%2 == 0 {
					r.Instant(PhaseLease, g, -1, -1, int64(i), 1)
				} else {
					sp := r.Begin(PhasePull, g, g+1, int64(i%4), -1)
					sp.End(int64(i))
				}
			}
		}(g)
	}
	wg.Wait()
	rec := r.Snapshot()
	if got := int64(len(rec.Events)) + rec.Dropped; got != goroutines*perG {
		t.Fatalf("events %d + dropped %d = %d, want %d",
			len(rec.Events), rec.Dropped, got, goroutines*perG)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	r := New(Config{NumCompute: 64, NumStaging: 1, Dumps: 2})
	for i := 0; i < 50; i++ {
		r.Instant(PhaseCollective, i%4, int(CollBcast), int64(i%2), int64(-i), int64(i))
		sp := r.Begin(PhaseShuffle, i%4, -1, int64(i%2), int64(i%3))
		sp.End(int64(i * 7))
	}
	rec := r.Snapshot()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, rec); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec, got) {
		t.Fatal("binary round trip changed the recording")
	}
}

func TestBinaryRejectsCorruption(t *testing.T) {
	r := New(Config{NumCompute: 1, NumStaging: 1, Dumps: 1})
	r.Instant(PhaseRetry, 0, -1, 0, 1, 0)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string]func([]byte) []byte{
		"empty":     func(b []byte) []byte { return nil },
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"bad magic": func(b []byte) []byte { b[0] ^= 0xff; return b },
		"bit flip":  func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b },
		"crc":       func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b },
	}
	for name, corrupt := range cases {
		b := corrupt(append([]byte(nil), good...))
		if _, err := DecodeBinary(b); err == nil {
			t.Errorf("%s: corruption accepted", name)
		}
	}
	if err := WriteBinary(&buf, nil); err == nil {
		t.Error("nil recording serialized")
	}
}

// TestBinaryRefusesPDTRACE1: a recording of the first format numbers the
// phases after checkpoint differently, so the reader names it rather than
// decoding shifted phases.
func TestBinaryRefusesPDTRACE1(t *testing.T) {
	r := New(Config{NumCompute: 1, NumStaging: 1, Dumps: 1})
	r.Instant(PhaseRetry, 0, -1, 0, 1, 0)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	old := append([]byte("PDTRACE1"), buf.Bytes()[len(binaryMagic):]...)
	if _, err := DecodeBinary(old); !errors.Is(err, ErrPDTRACE1) {
		t.Fatalf("DecodeBinary of a PDTRACE1 file: %v, want ErrPDTRACE1", err)
	}
}

func TestChromeExport(t *testing.T) {
	r := New(Config{NumCompute: 2, NumStaging: 1, Dumps: 1})
	r.Instant(PhaseCollective, 2, int(CollBarrier), 0, 0, 3)
	sp := r.Begin(PhaseMap, 2, -1, 0, -1)
	sp.End(10)
	var buf bytes.Buffer
	if err := WriteChrome(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			Ts   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome output is not JSON: %v", err)
	}
	var spans, instants, meta int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			spans++
		case "i":
			instants++
		case "M":
			meta++
		}
	}
	if spans != 1 || instants != 1 {
		t.Fatalf("spans=%d instants=%d, want 1/1", spans, instants)
	}
	if meta != 1 { // one thread_name record per rank seen in the events
		t.Fatalf("metadata records %d, want 1", meta)
	}
	if !strings.Contains(buf.String(), "collective:barrier") {
		t.Fatal("collective instant not named by op")
	}
}

func TestPhaseAndCollNames(t *testing.T) {
	if PhaseShuffle.String() != "shuffle" || PhaseLease.String() != "lease" {
		t.Fatal("phase names wrong")
	}
	if Phase(200).String() != "unknown" {
		t.Fatal("out-of-range phase not unknown")
	}
	if CollName(CollAlltoall) != "alltoall" || CollName(0) != "unknown" || CollName(99) != "unknown" {
		t.Fatal("collective names wrong")
	}
}

// ev builds an instant event for the synthetic recordings Verify's
// tests perturb.
func ev(ph Phase, rank, ep int32, dump, seq, arg, at int64) Event {
	return Event{Kind: KindInstant, Phase: ph, Rank: rank, Endpoint: ep,
		Dump: dump, Seq: seq, Arg: arg, Start: at, End: at}
}

// chunk is rank's engine retiring writer's chunk of dump at time at.
func chunk(rank int32, dump, writer, at int64) Event {
	return ev(PhaseChunk, rank, int32(writer), dump, writer, 0, at)
}

// synthetic builds a minimal recording that satisfies every Verify
// invariant; tests then perturb it to prove each check fires.
func synthetic() *Recording {
	span := func(ph Phase, rank int32, start, end int64) Event {
		e := ev(ph, rank, -1, 0, 0, 0, start)
		e.Kind, e.End = KindSpan, end
		return e
	}
	return &Recording{
		NumCompute: 2, NumStaging: 2, Dumps: 1,
		Events: []Event{
			// Both staging ranks consume the same collective sequence on comm 9.
			ev(PhaseCollective, 2, CollBarrier, 0, -1, 9, 10),
			ev(PhaseCollective, 3, CollBarrier, 0, -1, 9, 11),
			ev(PhaseCollective, 2, CollAlltoall, 0, -2, 9, 30),
			ev(PhaseCollective, 3, CollAlltoall, 0, -2, 9, 31),
			// Shuffle windows close before either reduce opens.
			span(PhaseShuffle, 2, 20, 40),
			span(PhaseShuffle, 3, 25, 45),
			span(PhaseReduce, 2, 50, 60),
			span(PhaseReduce, 3, 52, 62),
			// A spill replayed before the reduce.
			ev(PhaseReplay, 2, 0, 0, 0, 4096, 46),
			// Budget: capacity 100, grants to 90, largest grant 50.
			ev(PhaseBudgetCap, 2, -1, -1, 0, 100, 5),
			ev(PhaseLease, 2, -1, -1, 40, 40, 15),
			ev(PhaseLease, 2, -1, -1, 90, 50, 16),
			ev(PhaseLease, 2, -1, -1, 50, -40, 47),
		},
	}
}

func TestVerifyCleanRecording(t *testing.T) {
	rep, err := Verify(synthetic())
	if err != nil {
		t.Fatalf("clean recording failed verify: %v", err)
	}
	if c := rep.Checks; c[RuleCollectives] != 1 || c[RuleShuffleOrder] != 2 || c[RuleReplayOrder] != 1 || c[RuleLeasePeak] != 1 {
		t.Fatalf("report %s", rep)
	}
}

func TestVerifyLeasePeakOversizedChunks(t *testing.T) {
	// A chunk larger than the whole budget is granted alone when the
	// accountant is idle, and one serialized overdraft can ride on top of
	// it: the lease-peak bound must accept largest grant + largest grant,
	// not capacity + largest grant.
	oversized := func(peak int64) *Recording {
		return &Recording{
			NumCompute: 1, NumStaging: 1, Dumps: 1,
			Events: []Event{
				{Kind: KindInstant, Phase: PhaseBudgetCap, Rank: 1, Endpoint: -1, Dump: -1, Arg: 100},
				// Idle oversized grant: 600 B against a 100 B budget.
				{Kind: KindInstant, Phase: PhaseLease, Rank: 1, Endpoint: -1, Dump: -1, Seq: 600, Arg: 600, Start: 10, End: 10},
				// One overdraft on top while the grant is still held.
				{Kind: KindInstant, Phase: PhaseLease, Rank: 1, Endpoint: -1, Dump: -1, Seq: peak, Arg: 600, Start: 20, End: 20},
				{Kind: KindInstant, Phase: PhaseLease, Rank: 1, Endpoint: -1, Dump: -1, Seq: peak - 600, Arg: -600, Start: 30, End: 30},
				{Kind: KindInstant, Phase: PhaseLease, Rank: 1, Endpoint: -1, Dump: -1, Seq: peak - 1200, Arg: -600, Start: 40, End: 40},
			},
		}
	}
	rep, err := Verify(oversized(1200))
	if err != nil {
		t.Fatalf("oversized grant + one overdraft rejected: %v", err)
	}
	if rep.Checks[RuleLeasePeak] != 1 {
		t.Fatalf("lease ranks %d, want 1", rep.Checks[RuleLeasePeak])
	}
	// Anything beyond two oversized chunks is an accounting leak.
	if _, err := Verify(oversized(1201)); err == nil {
		t.Fatal("peak beyond ceiling + one grant verified")
	}
}

func TestVerifyRejectsUnusableRecordings(t *testing.T) {
	if _, err := Verify(nil); err == nil {
		t.Fatal("nil recording verified")
	}
	if _, err := Verify(&Recording{}); err == nil {
		t.Fatal("empty recording verified")
	}
	rec := synthetic()
	rec.Dropped = 3
	if _, err := Verify(rec); err == nil {
		t.Fatal("lossy recording verified")
	}
}

func TestVerifyDetectsViolations(t *testing.T) {
	cases := map[string]struct {
		mutate func(*Recording)
		want   string
	}{
		"collective op mismatch": {
			mutate: func(r *Recording) { r.Events[3].Endpoint = CollBcast },
			want:   "collective sequence",
		},
		"collective missing call": {
			mutate: func(r *Recording) { r.Events[3].Phase = PhaseRetry },
			want:   "collective sequence",
		},
		"shuffle after reduce": {
			mutate: func(r *Recording) { r.Events[4].End = 55 }, // rank 2 shuffle past its reduce start
			want:   "shuffle ends",
		},
		"reduce before peer shuffle": {
			mutate: func(r *Recording) { r.Events[6].Start = 22; r.Events[6].End = 24 },
			want:   "entered shuffle",
		},
		"replay after reduce": {
			mutate: func(r *Recording) { r.Events[8].Start = 55; r.Events[8].End = 55 },
			want:   "replay at",
		},
		"lease peak over budget": {
			mutate: func(r *Recording) { r.Events[11].Seq = 200 },
			want:   "lease peak",
		},
		"span ends before start": {
			mutate: func(r *Recording) { r.Events[4].End = 5 },
			want:   "before it starts",
		},
	}
	for name, tc := range cases {
		rec := synthetic()
		tc.mutate(rec)
		rep, err := Verify(rec)
		if err == nil {
			t.Errorf("%s: not detected", name)
			continue
		}
		found := false
		for _, v := range rep.Violations {
			if strings.Contains(v, tc.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: violations %q lack %q", name, rep.Violations, tc.want)
		}
	}
}

// TestEveryRuleBites proves each rule both runs and fails on its own: a
// clean base recording gives it something to check, and one mutation of
// that base fails Verify with violations of that rule alone. A rule
// added without a row here fails the test.
func TestEveryRuleBites(t *testing.T) {
	appendEvent := func(e Event) func(*Recording) {
		return func(r *Recording) { r.Events = append(r.Events, e) }
	}
	cases := [NumRules]struct {
		base   func() *Recording
		mutate func(*Recording)
	}{
		RuleCollectives:       {synthetic, func(r *Recording) { r.Events[3].Endpoint = CollBcast }},
		RuleShuffleOrder:      {synthetic, func(r *Recording) { r.Events[4].End = 55 }},
		RuleReplayOrder:       {synthetic, func(r *Recording) { r.Events[8].Start, r.Events[8].End = 55, 55 }},
		RuleLeasePeak:         {synthetic, func(r *Recording) { r.Events[11].Seq = 200 }},
		RuleScaleEpochs:       {syntheticElastic, func(r *Recording) { r.Events[2].Arg = 0b010 }},
		RuleChunkConservation: {syntheticElastic, func(r *Recording) { r.Events[6].Phase = PhaseRetry }},
		RuleCorruptQuarantine: {syntheticAdversary, func(r *Recording) { r.Events[2].Phase, r.Events[3].Phase = PhaseRetry, PhaseRetry }},
		RuleHealOnce:          {syntheticAdversary, appendEvent(chunk(4, 1, 2, 41))},
		RuleWALReplay:         {syntheticRestart, func(r *Recording) { r.Events[9].Arg = 0xBEEF }},
		RuleRestartOnce:       {syntheticRestart, appendEvent(chunk(2, 0, 1, 36))},
		RuleTenantIsolation:   {syntheticServe, appendEvent(ev(PhaseServeQuery, 2, 2, 0, 0x1111, 1, 25))},
		RuleCacheCoherence:    {syntheticServe, appendEvent(ev(PhaseCacheHit, 1, 1, 0, 0x1111, 0, 26))},
	}
	for r := Rule(0); r < NumRules; r++ {
		t.Run(r.String(), func(t *testing.T) {
			tc := cases[r]
			if tc.base == nil {
				t.Fatal("no base recording and mutation for this rule")
			}
			rep, err := Verify(tc.base())
			if err != nil {
				t.Fatalf("clean base: %v", err)
			}
			if rep.Checks[r] == 0 {
				t.Fatalf("clean base gave the rule nothing to check: %s", rep)
			}
			rec := tc.base()
			tc.mutate(rec)
			if rep, err = Verify(rec); err == nil {
				t.Fatal("mutation not detected")
			}
			for _, v := range rep.Violations {
				if !strings.HasPrefix(v, r.String()+": ") {
					t.Errorf("violation outside the rule: %s", v)
				}
			}
		})
	}
}

func TestVerifyToleratesCrashedRank(t *testing.T) {
	// A rank that shuffled but never reduced (crash, shed) contributes no
	// happens-before edge and must not trip the cross-rank check.
	rec := synthetic()
	rec.Events = append(rec.Events, Event{
		Kind: KindSpan, Phase: PhaseShuffle, Rank: 4, Endpoint: -1,
		Dump: 0, Seq: 0, Start: 58, End: 59,
	})
	if _, err := Verify(rec); err != nil {
		t.Fatalf("crashed-rank shuffle tripped verify: %v", err)
	}
}

func TestCeilPow2(t *testing.T) {
	for _, tc := range [][2]int{{0, 1}, {1, 1}, {2, 2}, {3, 4}, {8, 8}, {9, 16}} {
		if got := ceilPow2(tc[0]); got != tc[1] {
			t.Errorf("ceilPow2(%d) = %d, want %d", tc[0], got, tc[1])
		}
	}
}

func BenchmarkInstant(b *testing.B) {
	r := New(Config{})
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r.Instant(PhaseLease, 1, -1, -1, 100, 1)
		}
	})
}
