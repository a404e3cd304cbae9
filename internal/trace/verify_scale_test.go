package trace

import (
	"strings"
	"testing"
)

// syntheticElastic builds a recording of a two-epoch elastic run that
// satisfies the resize invariants: 2 writers, 3 staging ranks (world
// ranks 2..4), epoch 0 serving dumps 0-1 on staging index 0 alone and
// epoch 1 serving dumps 2-3 on indices {0, 1}. Index 2 stays parked.
func syntheticElastic() *Recording {
	epoch := func(rank int32, dump, seq, mask, count, at int64) Event {
		return ev(PhaseScaleEpoch, rank, int32(count), dump, seq, mask, at)
	}
	return &Recording{
		NumCompute: 2, NumStaging: 3, Dumps: 4,
		Events: []Event{
			// Epoch 0: active mask {idx 0}, announced by all staging ranks.
			epoch(2, 0, 0, 0b001, 1, 1),
			epoch(3, 0, 0, 0b001, 1, 2),
			epoch(4, 0, 0, 0b001, 1, 3),
			// Dumps 0-1: both writers served by staging index 0 (rank 2).
			chunk(2, 0, 0, 10), chunk(2, 0, 1, 11),
			chunk(2, 1, 0, 20), chunk(2, 1, 1, 21),
			// Epoch 1: grow to {idx 0, idx 1}.
			epoch(2, 2, 1, 0b011, 2, 30),
			epoch(3, 2, 1, 0b011, 2, 31),
			epoch(4, 2, 1, 0b011, 2, 32),
			// Dumps 2-3: writers split across the two active ranks; at
			// dump 3 writer 1's chunk passes through raw instead.
			chunk(2, 2, 0, 40), chunk(3, 2, 1, 41),
			chunk(2, 3, 0, 50),
			ev(PhasePass, 3, 1, 3, 0, 512, 51),
		},
	}
}

func TestVerifyScaleEpochsClean(t *testing.T) {
	rep, err := Verify(syntheticElastic())
	if err != nil {
		t.Fatalf("clean elastic recording failed verify: %v", err)
	}
	if n := rep.Checks[RuleScaleEpochs]; n != 2 {
		t.Fatalf("scale-epochs checks = %d, want 2", n)
	}
	if n := rep.Checks[RuleChunkConservation]; n != 4 {
		t.Fatalf("chunk-conservation checks = %d, want 4", n)
	}
}

func TestVerifyScaleAcceptsDroppedChunkAccounting(t *testing.T) {
	rec := syntheticElastic()
	// An explicit drop against a dead endpoint is conserved, not lost.
	last := &rec.Events[len(rec.Events)-1]
	last.Phase = PhaseDrop
	if _, err := Verify(rec); err != nil {
		t.Fatalf("accounted drop tripped verify: %v", err)
	}
}

func TestVerifyScaleDetectsViolations(t *testing.T) {
	cases := map[string]struct {
		mutate func(*Recording)
		want   string
	}{
		"epoch view disagreement": {
			mutate: func(r *Recording) { r.Events[2].Arg = 0b010 }, // rank 4's epoch-0 mask
			want:   "sees",
		},
		"mask population mismatch": {
			mutate: func(r *Recording) {
				for i := range r.Events[:3] {
					r.Events[i].Endpoint = 2 // all views announce 2 active, mask holds 1
				}
			},
			want: "were announced",
		},
		"parked rank not silent": {
			mutate: func(r *Recording) {
				r.Events = append(r.Events, Event{Kind: KindSpan, Phase: PhaseMap,
					Rank: 4, Endpoint: -1, Dump: 2, Seq: -1, Start: 45, End: 46})
			},
			want: "outside the active set",
		},
		"retired rank serves after shrink": {
			mutate: func(r *Recording) {
				// Shrink epoch 2 back to {idx 0} at dump 3; rank 3's dump-3
				// pass event now lands outside its epoch... keep the pass
				// conserved by moving it to rank 2, and make rank 3 gather.
				for _, rk := range []int32{2, 3, 4} {
					r.Events = append(r.Events, Event{Kind: KindInstant, Phase: PhaseScaleEpoch,
						Rank: rk, Endpoint: 1, Dump: 3, Seq: 2, Arg: 0b001, Start: 48, End: 48})
				}
				r.Events[len(r.Events)-4].Rank = 2 // the PhasePass event
				r.Events = append(r.Events, Event{Kind: KindSpan, Phase: PhaseGather,
					Rank: 3, Endpoint: -1, Dump: 3, Seq: -1, Start: 49, End: 52})
			},
			want: "outside the active set",
		},
		"double-reduced chunk": {
			mutate: func(r *Recording) {
				r.Events = append(r.Events, Event{Kind: KindInstant, Phase: PhaseChunk,
					Rank: 4, Endpoint: 1, Dump: 2, Seq: 1, Start: 42, End: 42})
			},
			want: "double-reduced",
		},
		"lost chunk": {
			mutate: func(r *Recording) {
				// Writer 1's dump-1 chunk vanishes entirely.
				for i := range r.Events {
					e := &r.Events[i]
					if e.Phase == PhaseChunk && e.Dump == 1 && e.Seq == 1 {
						e.Phase = PhaseRetry
					}
				}
			},
			want: "lost across handoff",
		},
		"epoch dumps move backwards": {
			mutate: func(r *Recording) {
				// Epoch 0 claims to start after epoch 1 does.
				for i := range r.Events {
					e := &r.Events[i]
					if e.Phase == PhaseScaleEpoch && e.Seq == 0 {
						e.Dump = 3
					}
				}
			},
			want: "before epoch",
		},
	}
	for name, tc := range cases {
		rec := syntheticElastic()
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

// A violation from another rule must not switch off the silence check:
// only an inconsistent epoch table may.
func TestScaleSilenceNotMaskedByOtherRules(t *testing.T) {
	others := map[string][]Event{
		"backwards span": {{Kind: KindSpan, Phase: PhaseThrottle, Rank: 2, Endpoint: -1,
			Dump: -1, Seq: -1, Start: 60, End: 59}},
		"lease peak over budget": {ev(PhaseBudgetCap, 2, -1, -1, 0, 100, 5), ev(PhaseLease, 2, -1, -1, 500, 50, 6)},
	}
	for name, other := range others {
		t.Run(name, func(t *testing.T) {
			rec := syntheticElastic()
			// Parked staging index 2 (rank 4) retires writer 1's dump-3
			// chunk, which is otherwise only passed through: conserved, but
			// not silent.
			rec.Events = append(append(rec.Events, chunk(4, 3, 1, 52)), other...)
			rep, err := Verify(rec)
			if err == nil {
				t.Fatal("violations not detected")
			}
			for _, v := range rep.Violations {
				if strings.HasPrefix(v, "scale-epochs: ") && strings.Contains(v, "rank 4 is outside the active set") {
					return
				}
			}
			t.Fatalf("silence violation masked: %q", rep.Violations)
		})
	}
}

// The double-reduce and loss rules must stay out of non-elastic
// recordings: pipelines with chunk filters drop chunks untraced.
func TestVerifyChunkConservationGatedOnScaleEpochs(t *testing.T) {
	rec := syntheticElastic()
	var evs []Event
	for _, e := range rec.Events {
		if e.Phase == PhaseScaleEpoch {
			continue
		}
		if e.Phase == PhaseChunk && e.Dump == 1 {
			continue // would be a "lost chunk" if the rule applied
		}
		evs = append(evs, e)
	}
	rec.Events = evs
	rep, err := Verify(rec)
	if err != nil {
		t.Fatalf("non-elastic recording tripped conservation: %v", err)
	}
	if rep.Checks[RuleChunkConservation] != 0 || rep.Checks[RuleScaleEpochs] != 0 {
		t.Fatalf("rules ran without scale epochs: %s", rep)
	}
}
