package trace

import (
	"strings"
	"testing"
)

// syntheticAdversary builds a recording of a run that exercised both
// adversarial-wire mechanisms cleanly: 3 writers, 2 staging ranks (world
// ranks 3..4), one CRC detection healed by re-pull, one chunk
// corrupt-dropped after detection, and one partition fence that heals.
func syntheticAdversary() *Recording {
	return &Recording{
		NumCompute: 3, NumStaging: 2, Dumps: 2,
		Events: []Event{
			// Dump 0: writer 0's pull fails CRC once, re-pull heals, chunk
			// retires normally.
			ev(PhaseCorruptDetect, 3, 0, 0, 0, 0, 10),
			chunk(3, 0, 0, 12),
			// Writer 1's source stays bad: detected twice, then dropped.
			ev(PhaseCorruptDetect, 3, 1, 0, 1, 0, 14),
			ev(PhaseCorruptDetect, 3, 1, 0, 1, 1, 16),
			ev(PhaseCorruptDrop, 3, 1, 0, 1, 0, 18),
			chunk(4, 0, 2, 24),
			// Dump 1: rank 4 is fenced (probe without quorum), its writer
			// served by rank 3; rank 4 heals afterwards.
			ev(PhaseProbe, 4, -1, 1, 1, 0, 30),
			ev(PhaseProbe, 3, -1, 1, 1, 1, 30),
			chunk(3, 1, 0, 32), chunk(3, 1, 1, 33), chunk(3, 1, 2, 34),
			ev(PhaseHeal, 4, -1, 1, 1, 0, 40),
		},
	}
}

func TestVerifyAdversaryClean(t *testing.T) {
	rep, err := Verify(syntheticAdversary())
	if err != nil {
		t.Fatalf("clean adversary recording failed verify: %v", err)
	}
	if n := rep.Checks[RuleCorruptQuarantine]; n != 1 {
		t.Errorf("corrupt-quarantine checks = %d, want 1", n)
	}
	if n := rep.Checks[RuleHealOnce]; n != 5 {
		t.Errorf("heal-once checks = %d, want 5 (every engine-retired (dump, writer))", n)
	}
}

func TestVerifyAdversaryDetectsViolations(t *testing.T) {
	cases := map[string]struct {
		mutate func(*Recording)
		want   string
	}{
		"corrupt-dropped chunk reaches Reduce": {
			mutate: func(r *Recording) {
				r.Events = append(r.Events, Event{Kind: KindInstant, Phase: PhaseChunk,
					Rank: 3, Endpoint: 1, Dump: 0, Seq: 1, Start: 19, End: 19})
			},
			want: "corrupted bytes reached a committed output",
		},
		"corrupt-drop without detection": {
			mutate: func(r *Recording) {
				for i := range r.Events {
					e := &r.Events[i]
					if e.Phase == PhaseCorruptDetect && e.Seq == 1 {
						e.Phase = PhaseRetry
					}
				}
			},
			want: "without any recorded CRC detection",
		},
		"chunk double-reduced across a heal": {
			mutate: func(r *Recording) {
				// The healed rank re-processes writer 2's dump-1 chunk.
				r.Events = append(r.Events, Event{Kind: KindInstant, Phase: PhaseChunk,
					Rank: 4, Endpoint: 2, Dump: 1, Seq: 2, Start: 41, End: 41})
			},
			want: "double-reduced",
		},
	}
	for name, tc := range cases {
		rec := syntheticAdversary()
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

// Without a PhaseHeal event the double-processing rule must stay out:
// non-partition pipelines may legitimately re-deliver (e.g. a shed
// class recount) without the fence/heal census guarantee.
func TestVerifyHealExclusivityGatedOnHeals(t *testing.T) {
	rec := syntheticAdversary()
	var evs []Event
	for _, e := range rec.Events {
		if e.Phase == PhaseHeal {
			continue
		}
		evs = append(evs, e)
	}
	// A duplicate retire that would trip the rule if it applied.
	evs = append(evs, Event{Kind: KindInstant, Phase: PhaseChunk,
		Rank: 4, Endpoint: 2, Dump: 1, Seq: 2, Start: 41, End: 41})
	rec.Events = evs
	rep, err := Verify(rec)
	if err != nil {
		t.Fatalf("heal-free recording tripped exclusivity: %v", err)
	}
	if n := rep.Checks[RuleHealOnce]; n != 0 {
		t.Fatalf("heal-once checks = %d without a heal event", n)
	}
}
