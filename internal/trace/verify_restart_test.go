package trace

import (
	"strings"
	"testing"
)

// syntheticRestart builds a recording of a clean crash-restart recovery:
// 2 writers, 2 staging ranks (world ranks 2..3). Rank 2 journals both
// dump-0 requests, commits, compacts its journal, then crashes mid
// dump 1 and re-pulls the chunks its journaled requests name after the
// restart — each chunk engine-retired exactly once, each replay matching
// its append's checksum.
func syntheticRestart() *Recording {
	return &Recording{
		NumCompute: 2, NumStaging: 2, Dumps: 2,
		Events: []Event{
			// Dump 0: journal both requests, retire, commit, checkpoint.
			ev(PhaseJournal, 2, -1, 0, 0, 0xAAAA, 10),
			ev(PhaseJournal, 2, -1, 0, 1, 0xBBBB, 11),
			ev(PhaseChunk, 2, -1, 0, 0, 0, 12),
			ev(PhaseChunk, 2, -1, 0, 1, 0, 13),
			ev(PhaseWalCommit, 2, -1, 0, 0, 0, 14),
			ev(PhaseCheckpoint, 2, -1, 0, 1, 0, 15), // covers dumps < 1, keeps no record
			// Dump 1: requests journaled, then the service crashes and
			// restarts; the chunks they name are re-pulled and retire once.
			ev(PhaseJournal, 2, -1, 1, 0, 0xCCCC, 20),
			ev(PhaseJournal, 2, -1, 1, 1, 0xDDDD, 21),
			ev(PhaseRestart, 2, -1, 1, 1, 2, 30),
			ev(PhaseWalReplay, 2, -1, 1, 0, 0xCCCC, 31),
			ev(PhaseWalReplay, 2, -1, 1, 1, 0xDDDD, 32),
			ev(PhaseChunk, 2, -1, 1, 0, 0, 33),
			ev(PhaseChunk, 2, -1, 1, 1, 0, 34),
			ev(PhaseWalCommit, 2, -1, 1, 0, 0, 35),
		},
	}
}

func TestVerifyRestartClean(t *testing.T) {
	rep, err := Verify(syntheticRestart())
	if err != nil {
		t.Fatalf("clean restart recording failed verify: %v", err)
	}
	if n := rep.Checks[RuleWALReplay]; n != 2 {
		t.Errorf("wal-replay checks = %d, want 2", n)
	}
	if n := rep.Checks[RuleRestartOnce]; n != 4 {
		t.Errorf("restart-once checks = %d, want 4 (every engine-retired (dump, writer))", n)
	}
}

func TestVerifyRestartDetectsViolations(t *testing.T) {
	cases := map[string]struct {
		mutate func(*Recording)
		want   string
	}{
		"replay without a journal append": {
			mutate: func(r *Recording) {
				r.Events = append(r.Events, Event{Kind: KindInstant, Phase: PhaseWalReplay,
					Rank: 3, Endpoint: -1, Dump: 1, Seq: 5, Arg: 0x1234, Start: 40, End: 40})
			},
			want: "without any recorded append",
		},
		"replay checksum mismatch": {
			mutate: func(r *Recording) {
				for i := range r.Events {
					e := &r.Events[i]
					if e.Phase == PhaseWalReplay && e.Seq == 0 {
						e.Arg = 0xBEEF
					}
				}
			},
			want: "matches no journal append",
		},
		"chunk double-reduced across a restart": {
			mutate: func(r *Recording) {
				// The revived incarnation re-processes a dump-0 chunk the
				// crashed one already committed.
				r.Events = append(r.Events, Event{Kind: KindInstant, Phase: PhaseChunk,
					Rank: 2, Endpoint: -1, Dump: 0, Seq: 1, Start: 36, End: 36})
			},
			want: "journal dedup failed",
		},
	}
	for name, tc := range cases {
		rec := syntheticRestart()
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

// Without a PhaseRestart event the restart-exclusivity rule must stay
// out, and without PhaseWalReplay events the fidelity rule runs zero
// checks: restart-free pipelines may re-deliver without the journal's
// dedup guarantee.
func TestVerifyRestartRulesGated(t *testing.T) {
	rec := syntheticRestart()
	var evs []Event
	for _, e := range rec.Events {
		if e.Phase == PhaseRestart || e.Phase == PhaseWalReplay {
			continue
		}
		evs = append(evs, e)
	}
	// A duplicate retire that would trip exclusivity if it applied.
	evs = append(evs, Event{Kind: KindInstant, Phase: PhaseChunk,
		Rank: 2, Endpoint: -1, Dump: 0, Seq: 1, Start: 36, End: 36})
	rec.Events = evs
	rep, err := Verify(rec)
	if err != nil {
		t.Fatalf("restart-free recording tripped exclusivity: %v", err)
	}
	if rep.Checks[RuleRestartOnce] != 0 || rep.Checks[RuleWALReplay] != 0 {
		t.Fatalf("restart/replay rules ran without restart/replay events: %s", rep)
	}
}
