package trace

import (
	"strings"
	"testing"
)

// syntheticServe builds a recording of a clean two-tenant serve run:
// each tenant ingests two versions of its own object, queries it, and
// exercises the result cache through a fill → hit → invalidate → refill
// → hit cycle. Object hashes are distinct per tenant because the hash
// covers the tenant-qualified name.
func syntheticServe() *Recording {
	const objA, objB = 0x1111, 0x2222
	return &Recording{
		NumCompute: 2, NumStaging: 1, Dumps: 2,
		Events: []Event{
			ev(PhaseTenantJoin, 1, 1, 0, 0, 1, 1),
			ev(PhaseTenantJoin, 2, 2, 0, 0, 1, 2),
			// Tenant 1: ingest v0, query, cache fill + hit under epoch 0.
			ev(PhaseServeIngest, 1, 1, 0, objA, 0, 10),
			ev(PhaseServeQuery, 1, 1, 0, objA, 0, 12),
			ev(PhaseCacheFill, 1, 1, 0, objA, 0, 12),
			ev(PhaseCacheHit, 1, 1, 0, objA, 0, 14),
			// Tenant 2 works its own object concurrently.
			ev(PhaseServeIngest, 2, 2, 0, objB, 0, 11),
			ev(PhaseServeQuery, 2, 2, 0, objB, 0, 13),
			ev(PhaseCacheFill, 2, 2, 0, objB, 0, 13),
			ev(PhaseCacheHit, 2, 2, 0, objB, 0, 15),
			// Tenant 1 re-ingests version 0: its epoch bumps to 1, the
			// next query refills, later hits carry the new epoch.
			ev(PhaseServeIngest, 1, 1, 0, objA, 1, 20),
			ev(PhaseCacheInvalidate, 1, 1, 0, objA, 1, 20),
			ev(PhaseServeQuery, 1, 1, 0, objA, 1, 22),
			ev(PhaseCacheFill, 1, 1, 0, objA, 1, 22),
			ev(PhaseCacheHit, 1, 1, 0, objA, 1, 24),
			ev(PhaseTenantLeave, 2, 2, 0, 0, 0, 30),
		},
	}
}

func TestVerifyServeClean(t *testing.T) {
	rep, err := Verify(syntheticServe())
	if err != nil {
		t.Fatalf("clean serve recording failed verify: %v", err)
	}
	if n := rep.Checks[RuleTenantIsolation]; n != 2 {
		t.Errorf("tenant-isolation checks = %d, want 2 (one per object)", n)
	}
	if n := rep.Checks[RuleCacheCoherence]; n != 3 {
		t.Errorf("cache-coherence checks = %d, want 3 (one per cache hit)", n)
	}
}

func TestVerifyServeDetectsViolations(t *testing.T) {
	cases := map[string]struct {
		mutate func(*Recording)
		want   string
	}{
		"query crosses a namespace": {
			mutate: func(r *Recording) {
				// Tenant 2 reads tenant 1's object.
				r.Events = append(r.Events, Event{Kind: KindInstant, Phase: PhaseServeQuery,
					Rank: 2, Endpoint: 2, Dump: 0, Seq: 0x1111, Arg: 1, Start: 25, End: 25})
			},
			want: "crossed a namespace",
		},
		"cache leaks across tenants": {
			mutate: func(r *Recording) {
				r.Events = append(r.Events, Event{Kind: KindInstant, Phase: PhaseCacheHit,
					Rank: 1, Endpoint: 1, Dump: 0, Seq: 0x2222, Arg: 0, Start: 26, End: 26})
			},
			want: "crossed a namespace",
		},
		"stale hit after invalidation": {
			mutate: func(r *Recording) {
				// An epoch-0 entry served after the epoch-1 invalidation.
				r.Events = append(r.Events, Event{Kind: KindInstant, Phase: PhaseCacheHit,
					Rank: 1, Endpoint: 1, Dump: 0, Seq: 0x1111, Arg: 0, Start: 26, End: 26})
			},
			want: "stale result",
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			rec := syntheticServe()
			tc.mutate(rec)
			_, err := Verify(rec)
			if err == nil {
				t.Fatal("verify accepted a corrupted serve recording")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("verify error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestVerifyServeHitTiesWithInvalidation: an invalidation and a hit
// with equal timestamps must not flag — cache events are recorded
// inside the cache's critical section, so a tie cannot order the
// invalidation first, and only strictly-earlier invalidations count.
func TestVerifyServeHitTiesWithInvalidation(t *testing.T) {
	rec := syntheticServe()
	rec.Events = append(rec.Events, Event{Kind: KindInstant, Phase: PhaseCacheHit,
		Rank: 1, Endpoint: 1, Dump: 0, Seq: 0x1111, Arg: 0, Start: 20, End: 20})
	if _, err := Verify(rec); err != nil {
		t.Fatalf("tie-timestamped hit flagged as stale: %v", err)
	}
}
