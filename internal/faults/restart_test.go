package faults

import (
	"strings"
	"testing"
)

func TestParseRestartAndCrashAll(t *testing.T) {
	p, err := ParsePlan("restart:10@2:3;restart:9@1;crashall@5", 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Restarts) != 2 || len(p.CrashAlls) != 1 {
		t.Fatalf("parsed %d restarts, %d crashalls", len(p.Restarts), len(p.CrashAlls))
	}
	if r := p.Restarts[0]; r.Endpoint != 10 || r.AtDump != 2 || r.Downtime != 3 {
		t.Fatalf("restart[0] = %+v", r)
	}
	if r := p.Restarts[1]; r.Downtime != 1 {
		t.Fatalf("default downtime = %d, want 1", r.Downtime)
	}
	if p.CrashAlls[0].AtDump != 5 {
		t.Fatalf("crashall = %+v", p.CrashAlls[0])
	}
	rendered := p.String()
	again, err := ParsePlan(rendered, 7)
	if err != nil {
		t.Fatalf("rendering %q rejected: %v", rendered, err)
	}
	if again.String() != rendered {
		t.Fatalf("rendering not a fixed point: %q -> %q", rendered, again.String())
	}
}

func TestParseRestartErrors(t *testing.T) {
	for _, spec := range []string{
		"restart:@1",            // missing endpoint
		"restart:-1@1",          // negative endpoint
		"restart:9@-1",          // negative dump
		"restart:9@1:0",         // zero downtime
		"restart:9@1:x",         // junk downtime
		"restart:9",             // no window
		"crashall@-1",           // negative dump
		"crashall@x",            // junk dump
		"crashall@1;crashall@1", // duplicate
	} {
		if _, err := ParsePlan(spec, 1); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

func TestValidateRestartConflicts(t *testing.T) {
	cases := []struct {
		spec string
		want string
	}{
		{"restart:9@1:2;restart:9@2:1", "overlap"},
		{"crash:9@3;restart:9@1:1", "crash is permanent"},
		{"partition:8|9@1-2;restart:9@2:1", "partition window"},
		{"partition:8|9@1-2;crashall@1", "partition window"},
		{"partition:8|9@1-*;restart:9@5:1", "partition window"},
		{"restart:9@1:2;crashall@2", "restart window"},
	}
	for _, c := range cases {
		_, err := ParsePlan(c.spec, 1)
		if err == nil {
			t.Errorf("spec %q accepted", c.spec)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("spec %q error %q does not mention %q", c.spec, err, c.want)
		}
	}
	// Legal neighbors: back-to-back windows, a partition not involving
	// the restarted endpoint, a crashall after every window closed.
	for _, spec := range []string{
		"restart:9@1:1;restart:9@2:1",
		"partition:7|8@1-2;restart:9@1:1",
		"restart:9@1:1;crashall@3",
		"restart:9@1:1;restart:10@1:2",
	} {
		if _, err := ParsePlan(spec, 1); err != nil {
			t.Errorf("spec %q rejected: %v", spec, err)
		}
	}
}

func TestInjectorRestartQueries(t *testing.T) {
	p, err := ParsePlan("restart:10@2:2;crashall@1;crash:11@5", 1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInjector(p)
	if err != nil {
		t.Fatal(err)
	}
	for dump, down := range map[int64]bool{0: false, 1: false, 2: true, 3: true, 4: false} {
		if got := in.RestartDownAt(10, dump); got != down {
			t.Errorf("RestartDownAt(10, %d) = %v, want %v", dump, got, down)
		}
	}
	if in.RestartDownAt(9, 2) {
		t.Error("unrelated endpoint down")
	}
	if in.Revives(10, 3) {
		t.Error("Revives true inside the window")
	}
	if !in.Revives(10, 4) {
		t.Error("Revives false after the window")
	}
	if in.Revives(11, 6) {
		t.Error("Revives true for a crashed endpoint")
	}
	if !in.CrashAllAt(1) || in.CrashAllAt(2) {
		t.Error("CrashAllAt wrong")
	}
	// DownAt stays crash-only: a restarting rank is still live membership.
	if in.DownAt(10, 2) {
		t.Error("DownAt true inside a restart window")
	}
	if !in.DownAt(11, 5) {
		t.Error("DownAt false for a crash")
	}

	var nilInj *Injector
	if nilInj.RestartDownAt(0, 0) || nilInj.CrashAllAt(0) || nilInj.Revives(0, 0) {
		t.Error("nil injector restarted")
	}
}
