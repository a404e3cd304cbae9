package main

import "testing"

func TestListExitsClean(t *testing.T) {
	if got := run([]string{"-list"}); got != 0 {
		t.Fatalf("-list exit = %d, want 0", got)
	}
}

func TestUnknownAnalyzerIsUsageError(t *testing.T) {
	if got := run([]string{"-run", "nosuchpass", "./..."}); got != 2 {
		t.Fatalf("unknown analyzer exit = %d, want 2", got)
	}
}

// TestFixIsUnknownFlag: typederr names the errors.Is rewrite in its
// message; nothing rewrites source, so -fix is a usage error.
func TestFixIsUnknownFlag(t *testing.T) {
	if got := run([]string{"-fix", "./..."}); got != 2 {
		t.Fatalf("-fix exit = %d, want 2", got)
	}
}

// TestRepoIsVetClean is the acceptance gate: the full suite over the
// whole module must produce no unsuppressed findings. Every waiver in
// the tree carries its reason inline, so a new finding fails here first.
func TestRepoIsVetClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	if got := run([]string{"predata/..."}); got != 0 {
		t.Fatalf("predata-vet predata/... exit = %d, want 0 (see findings above)", got)
	}
}

// TestRepoWaiversAreLive audits every vet-ignore directive in the tree:
// each must still suppress at least one finding, or it is stale and the
// run exits 1.
func TestRepoWaiversAreLive(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	if got := run([]string{"-report-waivers", "predata/..."}); got != 0 {
		t.Fatalf("predata-vet -report-waivers exit = %d, want 0 (a waiver is stale)", got)
	}
}
