package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"predata/internal/adios"
	"predata/internal/trace"
)

func TestRunGTCPipeline(t *testing.T) {
	if err := run("gtc", 4, 2, 500, 8, 64, 1, 2, "sort,hist,hist2d,index", "", 1, 0, "", "", 0, "", "", ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunPixiePipeline(t *testing.T) {
	if err := run("pixie3d", 4, 1, 0, 8, 64, 1, 1, "reorg", "", 1, 0, "", "", 0, "", "", ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsUnknownOperator(t *testing.T) {
	if err := run("gtc", 2, 1, 10, 8, 64, 1, 1, "sort,frobnicate", "", 1, 0, "", "", 0, "", "", ""); err == nil {
		t.Fatal("unknown operator accepted")
	}
}

func TestRunMultipleDumps(t *testing.T) {
	if err := run("gtc", 4, 2, 200, 8, 64, 3, 2, "hist", "", 1, 0, "", "", 0, "", "", ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunDurableRestart(t *testing.T) {
	// The full CLI path of a durable run: journals under -wal-dir, a
	// checkpoint cadence, and one staging rank bouncing across a
	// two-dump window — the run completes with the bounce journaled
	// and replay-recovered, not failed.
	if err := run("gtc", 4, 2, 200, 8, 64, 4, 2, "hist",
		"restart:5@1:1", 1, 0, "", t.TempDir(), 2, "", "", ""); err != nil {
		t.Fatal(err)
	}
	// -checkpoint-every without -wal-dir is rejected.
	if err := run("gtc", 2, 1, 10, 8, 64, 1, 1, "hist", "", 1, 0, "", "", 2, "", "", ""); err == nil {
		t.Fatal("-checkpoint-every without -wal-dir accepted")
	}
	// A restart plan without a journal directory is rejected.
	if err := run("gtc", 2, 2, 10, 8, 64, 3, 1, "hist", "restart:3@1:1", 1, 0, "", "", 0, "", "", ""); err == nil {
		t.Fatal("restart plan without -wal-dir accepted")
	}
}

func TestRunWithMemoryBudget(t *testing.T) {
	// A 1 MB budget with ~1.3 MB arriving per staging rank per dump: the
	// full CLI path must complete under admission control and spill.
	if err := run("gtc", 8, 2, 20000, 8, 64, 2, 1, "hist", "", 1, 1, t.TempDir(), "", 0, "", "", ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunFaultPlanChaos(t *testing.T) {
	// Transients plus a staging crash at dump 1: the run must complete
	// (degraded, not failed) under the full CLI path.
	if err := run("gtc", 4, 2, 200, 8, 64, 2, 2, "hist", "transient:*:0.05;crash:5@1", 42, 0, "", "", 0, "", "", ""); err != nil {
		t.Fatal(err)
	}
	// A malformed plan fails before the pipeline launches.
	if err := run("gtc", 2, 1, 10, 8, 64, 1, 1, "hist", "explode:everything", 1, 0, "", "", 0, "", "", ""); err == nil {
		t.Fatal("malformed fault plan accepted")
	}
	// A plan crashing a compute endpoint is rejected.
	if err := run("gtc", 2, 1, 10, 8, 64, 1, 1, "hist", "crash:0@0", 1, 0, "", "", 0, "", "", ""); err == nil {
		t.Fatal("compute-endpoint crash accepted")
	}
}

func TestRunFaultPlanAdversary(t *testing.T) {
	// Wire corruption plus a staging partition through the full CLI path:
	// the run must complete with the fence window degraded, not failed.
	if err := run("gtc", 8, 3, 200, 8, 64, 4, 2, "hist",
		"corrupt:*:0.1:pull;partition:10|8,9@1-2", 7, 0, "", "", 0, "", "", ""); err != nil {
		t.Fatal(err)
	}
	// A partition naming an out-of-range endpoint is rejected.
	if err := run("gtc", 2, 1, 10, 8, 64, 1, 1, "hist",
		"partition:99|2@0-0", 1, 0, "", "", 0, "", "", ""); err == nil {
		t.Fatal("out-of-range partition endpoint accepted")
	}
}

func TestRunWithTrace(t *testing.T) {
	dir := t.TempDir()
	// Binary export: the file must round-trip through the PDTRACE2 reader.
	bin := filepath.Join(dir, "run.trace")
	if err := run("gtc", 4, 2, 300, 8, 64, 2, 2, "sort,hist", "", 1, 0, "", "", 0, bin, "", ""); err != nil {
		t.Fatal(err)
	}
	rec, err := trace.ReadFile(bin)
	if err != nil {
		t.Fatalf("reading exported trace: %v", err)
	}
	if len(rec.Events) == 0 {
		t.Fatal("exported trace is empty")
	}
	if _, err := trace.Verify(rec); err != nil {
		t.Fatalf("re-verifying exported trace: %v", err)
	}
	// Chrome export: the .json suffix selects trace_event output.
	cj := filepath.Join(dir, "run.json")
	if err := run("gtc", 4, 1, 100, 8, 64, 1, 1, "hist", "", 1, 0, "", "", 0, cj, "", ""); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(cj)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}
}

func TestOperatorFactoryValidation(t *testing.T) {
	if _, err := operatorFactory("gtc", []string{"bogus"}); err == nil {
		t.Fatal("bogus operator accepted")
	}
	f, err := operatorFactory("gtc", []string{"sort", "", "hist"})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(f(0)); got != 2 {
		t.Fatalf("factory built %d operators, want 2", got)
	}
}

func TestVarFor(t *testing.T) {
	if varFor("gtc") != "p" || varFor("pixie3d") != "rho" || varFor("xray") != "frames" {
		t.Error("variable mapping wrong")
	}
	if partialCols("pixie3d") != nil {
		t.Error("pixie partial columns should be nil")
	}
	if len(partialCols("gtc")) == 0 || len(partialCols("xray")) == 0 {
		t.Error("gtc/xray partial columns empty")
	}
}

func TestRunElasticXray(t *testing.T) {
	// The full CLI path of the bursty detector workload under an elastic
	// 1:3 pool: a 1 MB budget that bursts overrun, aggressive grow, and a
	// verified trace export spanning the resizes.
	tr := filepath.Join(t.TempDir(), "elastic.trace")
	if err := run("xray", 8, 3, 0, 8, 100, 8, 1, "hist", "", 7, 1, t.TempDir(), "", 0, tr,
		"1:3", "growk=1,shrinkj=2,cooldown=1"); err != nil {
		t.Fatal(err)
	}
	rec, err := trace.ReadFile(tr)
	if err != nil {
		t.Fatalf("reading exported trace: %v", err)
	}
	if _, err := trace.Verify(rec); err != nil {
		t.Fatalf("re-verifying exported trace: %v", err)
	}
}

func TestParseScalePolicy(t *testing.T) {
	pol, err := parseScalePolicy("1:4", "growk=3,shrinkj=5,lowutil=0.5,cooldown=2,maxstep=1")
	if err != nil {
		t.Fatal(err)
	}
	if pol.Min != 1 || pol.Max != 4 || pol.GrowK != 3 || pol.ShrinkJ != 5 ||
		pol.LowUtil != 0.5 || pol.Cooldown != 2 || pol.MaxStep != 1 {
		t.Fatalf("parsed policy %+v", pol)
	}
	for _, bad := range []struct{ spec, tuning string }{
		{"", ""},
		{"4", ""},
		{"4:1", ""},           // Max < Min
		{"0:2", ""},           // Min < 1
		{"1:2", "growk"},      // not k=v
		{"1:2", "bogus=3"},    // unknown key
		{"1:2", "window=8"},   // unknown key: decisions read the streaks
		{"1:2", "growk=fast"}, // unparsable value
	} {
		if _, err := parseScalePolicy(bad.spec, bad.tuning); err == nil {
			t.Errorf("parseScalePolicy(%q, %q) accepted", bad.spec, bad.tuning)
		}
	}
}

func TestRunRejectsScalePolicyWithoutElastic(t *testing.T) {
	if err := run("gtc", 2, 1, 10, 8, 64, 1, 1, "hist", "", 1, 0, "", "", 0, "", "", "growk=1"); err == nil {
		t.Fatal("-scale-policy without -elastic accepted")
	}
}

func TestRunInComputeMode(t *testing.T) {
	if err := runInCompute("gtc", 4, 500, 8, 2); err != nil {
		t.Fatal(err)
	}
	if err := runInCompute("pixie3d", 4, 0, 6, 1); err != nil {
		t.Fatal(err)
	}
}

func TestModeFromConfig(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "adios.xml")
	doc := `<adios-config>
  <adios-group name="particles"><var name="p" type="array"/></adios-group>
  <method group="particles" method="STAGING"/>
</adios-config>`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	mode, bufMB, err := modeFromConfig(path, "gtc")
	if err != nil {
		t.Fatal(err)
	}
	if mode != "staging" {
		t.Fatalf("mode %q", mode)
	}
	// No <buffer> element: the ADIOS default budget applies.
	if bufMB != adios.DefaultBufferMB {
		t.Fatalf("buffer %d MB, want default %d", bufMB, adios.DefaultBufferMB)
	}
	// MPI method maps to the in-compute configuration.
	doc2 := `<adios-config>
  <adios-group name="particles"><var name="p" type="array"/></adios-group>
  <method group="particles" method="MPI"/>
</adios-config>`
	if err := os.WriteFile(path, []byte(doc2), 0o644); err != nil {
		t.Fatal(err)
	}
	mode, _, err = modeFromConfig(path, "gtc")
	if err != nil {
		t.Fatal(err)
	}
	if mode != "incompute" {
		t.Fatalf("mode %q", mode)
	}
	// Missing variable in the declared group.
	doc3 := `<adios-config>
  <adios-group name="particles"><var name="q" type="array"/></adios-group>
</adios-config>`
	if err := os.WriteFile(path, []byte(doc3), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := modeFromConfig(path, "gtc"); err == nil {
		t.Fatal("missing variable accepted")
	}
	if _, _, err := modeFromConfig("/nonexistent/x.xml", "gtc"); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestCLIRejects: sizes no run can have are usage errors (exit 2) before
// any rank starts, and an operator list naming one operator twice fails
// the run (exit 1) instead of one result silently overwriting the other.
// Zero dumps is a run that writes nothing, in either mode (exit 0).
func TestCLIRejects(t *testing.T) {
	small := []string{"-compute", "2", "-staging", "1", "-particles", "100", "-dumps", "1"}
	for _, c := range []struct {
		name string
		args []string
		code int
	}{
		{"negative particles", []string{"-particles", "-5"}, 2},
		{"negative local", []string{"-app", "pixie3d", "-local", "-2"}, 2},
		{"zero frames", []string{"-app", "xray", "-frames", "0"}, 2},
		{"negative frames", []string{"-app", "xray", "-frames", "-3"}, 2},
		{"zero compute", []string{"-compute", "0"}, 2},
		{"zero staging", []string{"-staging", "0"}, 2},
		{"zero workers", []string{"-workers", "0"}, 2},
		{"negative dumps", []string{"-dumps", "-1"}, 2},
		{"negative checkpoint-every", []string{"-checkpoint-every", "-1"}, 2},
		{"hist twice", append([]string{"-ops", "hist,hist"}, small...), 1},
		{"sort twice", append([]string{"-ops", "sort,sort"}, small...), 1},
		{"zero dumps staging", []string{"-compute", "2", "-staging", "1", "-dumps", "0"}, 0},
		{"zero dumps incompute", []string{"-mode", "incompute", "-compute", "2", "-dumps", "0"}, 0},
	} {
		if got := cli(c.args); got != c.code {
			t.Errorf("%s: exit status %d, want %d", c.name, got, c.code)
		}
	}
	// A -wal-dir holding an earlier run's journal is refused at once, not
	// recovered from until a dump deadline fails the run.
	durable := append([]string{"-ops", "hist", "-wal-dir", t.TempDir()}, small...)
	if got := cli(durable); got != 0 {
		t.Fatalf("durable run: exit status %d, want 0", got)
	}
	start := time.Now()
	if got := cli(durable); got != 2 {
		t.Errorf("reused -wal-dir: exit status %d, want 2", got)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("reused -wal-dir refused after %v", took)
	}
}

// TestCPUProfile: -cpuprofile leaves a flushed, gzip-compressed profile
// after a run that succeeds and after one that fails once profiling began.
func TestCPUProfile(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		name string
		args []string
		code int
	}{
		{"ok", []string{"-app", "pixie3d", "-compute", "4", "-staging", "1", "-local", "8", "-dumps", "1", "-ops", "reorg"}, 0},
		{"failed", []string{"-ops", "frobnicate"}, 1},
	} {
		path := filepath.Join(dir, c.name+".prof")
		if got := cli(append(c.args, "-cpuprofile", path)); got != c.code {
			t.Fatalf("%s: exit status %d, want %d", c.name, got, c.code)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(raw, []byte{0x1f, 0x8b}) {
			t.Errorf("%s: %s does not start with the gzip magic", c.name, path)
		}
	}
}
