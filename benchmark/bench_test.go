package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// contract mirrors BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var c contract
	if err := dec.Decode(&c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return c
}

// TestContractMatchesTables keeps BENCHMARK.json and the tables in
// metrics.go from drifting apart: same workloads, same metrics, same
// units, directions and bounds, and names the contract's grammar allows.
func TestContractMatchesTables(t *testing.T) {
	c := loadContract(t)
	if c.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", c.RunSeconds, defaultSeconds)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(c.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %q, implemented %q (or their reasons differ)", i, c.Workloads[i].Name, w.name)
		}
		if !name.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or reason", w.name)
		}
	}
	check := func(kind string, declared []contractMetric, table []metricSpec, bounded bool) {
		if len(declared) != len(table) {
			t.Fatalf("%s: %d declared, %d in the table", kind, len(declared), len(table))
		}
		for i, s := range table {
			d := declared[i]
			if d.Name != s.Name || d.Unit != s.Unit || d.Better != s.Better {
				t.Errorf("%s %d: declared %+v, table %+v", kind, i, d, s)
			}
			if !name.MatchString(s.Name) || !unit.MatchString(s.Unit) {
				t.Errorf("%s %q: name or unit %q outside the contract's grammar", kind, s.Name, s.Unit)
			}
			if bounded != (d.Bound != nil) || (bounded && (*d.Bound != s.Bound || s.Bound <= 0 || s.Bound > 0.25)) {
				t.Errorf("%s %q: bound %v, table %v", kind, s.Name, d.Bound, s.Bound)
			}
		}
	}
	check("end_to_end", c.EndToEnd, endToEnd, true)
	check("per_layer", c.PerLayer, perLayer, false)
	seen := map[string]bool{}
	for _, table := range [][]metricSpec{endToEnd, perLayer, ledgerOnly} {
		for _, s := range table {
			if seen[s.Name] {
				t.Errorf("metric %q declared twice", s.Name)
			}
			seen[s.Name] = true
		}
	}
}

// resultLines picks the contract's result objects out of a run's output.
func resultLines(t *testing.T, out string) []map[string]json.RawMessage {
	t.Helper()
	var lines []map[string]json.RawMessage
	for _, l := range strings.Split(out, "\n") {
		if !strings.HasPrefix(l, "{") {
			continue
		}
		var obj map[string]json.RawMessage
		if err := json.Unmarshal([]byte(l), &obj); err != nil {
			t.Fatalf("result line: %v", err)
		}
		lines = append(lines, obj)
	}
	return lines
}

// TestEveryMetricOncePerWorkload runs the whole benchmark at tiny scale,
// untraced and traced, and checks what it emits against the tables: one
// result line per workload holding exactly the declared metrics with
// their units, nothing failed, and a result set in which every workload
// reports every metric once.
func TestEveryMetricOncePerWorkload(t *testing.T) {
	for _, traced := range []bool{false, true} {
		out := t.TempDir()
		trace, specs := "0", endToEnd
		if traced {
			trace, specs = "1", perLayer
		}
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-scale", "tiny", "-seconds", "0.2", "-seed", "7", "-trace", trace, "-out", out}, &stdout, &stderr); code != 0 {
			t.Fatalf("trace=%s: exit %d\n%s%s", trace, code, stdout.String(), stderr.String())
		}
		lines := resultLines(t, stdout.String())
		if len(lines) != len(workloads) {
			t.Fatalf("trace=%s: %d result lines, want %d", trace, len(lines), len(workloads))
		}
		trimmed := strings.TrimSpace(stdout.String())
		if !strings.HasPrefix(trimmed[strings.LastIndex(trimmed, "\n")+1:], "{") {
			t.Errorf("trace=%s: the last line of standard output is not the result object", trace)
		}
		for i, obj := range lines {
			if len(obj) != 4 || string(obj["correct"]) != "true" || string(obj["failed"]) != "0" || string(obj["attempted"]) == "0" {
				t.Errorf("%s trace=%s: result keys/verdict wrong: %v", workloads[i].name, trace, obj)
			}
			var metrics map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			}
			if err := json.Unmarshal(obj["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			if len(metrics) != len(specs) {
				t.Errorf("%s trace=%s: %d metrics, want %d", workloads[i].name, trace, len(metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := metrics[s.Name]
				if !ok || m.Value == nil || m.Unit != s.Unit {
					t.Errorf("%s trace=%s: metric %q missing or unit %q != %q", workloads[i].name, trace, s.Name, m.Unit, s.Unit)
				}
			}
		}

		rf, err := loadResults(filepath.Join(out, "results.json"))
		if err != nil {
			t.Fatal(err)
		}
		if len(rf.Runs) != len(workloads) {
			t.Fatalf("result set holds %d runs, want %d", len(rf.Runs), len(workloads))
		}
		for _, r := range rf.Runs {
			count := map[string]int{}
			for _, m := range append(append([]measurement(nil), r.EndToEnd...), r.PerLayer...) {
				count[m.Name]++
				if spec, ok := specOf(m.Name); !ok || spec.Unit != m.Unit {
					t.Errorf("%s: metric %q undeclared or unit %q wrong", r.Workload, m.Name, m.Unit)
				}
			}
			for _, s := range endToEnd {
				if count[s.Name] != 1 {
					t.Errorf("%s: %q reported %d times", r.Workload, s.Name, count[s.Name])
				}
			}
			for name, n := range count {
				if n != 1 {
					t.Errorf("%s: %q reported %d times", r.Workload, name, n)
				}
			}
			if m, ok := r.find("fail_ratio"); !ok || m.Value != 0 {
				t.Errorf("%s: fail_ratio %v", r.Workload, m.Value)
			}
			if r.Env.GoVersion == "" || r.Env.NProc == 0 || r.Env.JournalBacking == "" || len(r.Sizes) == 0 {
				t.Errorf("%s: environment record incomplete: %+v", r.Workload, r.Env)
			}
			if traced {
				if _, err := os.Stat(filepath.Join(out, "trace-"+r.Workload+".json")); err != nil {
					t.Errorf("%s: no span file: %v", r.Workload, err)
				}
				gather, _ := r.find("predata.gather_share")
				aggregate, _ := r.find("predata.aggregate_share")
				process, _ := r.find("predata.process_share")
				rest, _ := r.find("predata.unattributed_share")
				if sum := gather.Value + aggregate.Value + process.Value + rest.Value; r.Workload != "serve-mixed" && (sum < 0.98 || sum > 1.02) {
					t.Errorf("%s: predata shares sum to %v", r.Workload, sum)
				}
			}
		}
		if left, _ := filepath.Glob(filepath.Join(out, "scratch-*")); len(left) != 0 {
			t.Errorf("scratch space left behind: %v", left)
		}
	}
}

// TestOracleBites proves the reference comparisons are not vacuous: one
// flipped histogram bin and one swapped pair of sorted rows are caught.
func TestOracleBites(t *testing.T) {
	inst, err := gtcHist.setup(3, scaleTiny, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	records := inst.(*pipelineInstance).spec.records
	cols := []int{colZeta, colRadial}
	want := referenceHistograms(records, cols)
	got := referenceHistograms(records, cols)
	if n := diffHistograms(got, want); n != 0 {
		t.Fatalf("identical histograms differ in %d bins", n)
	}
	got[colRadial][5]++
	if n := diffHistograms(got, want); n != 1 {
		t.Errorf("one flipped bin counted as %d mismatches", n)
	}

	sorted := referenceSort(records)
	half := len(sorted) / 2 / particleCols * particleCols
	runs := [][]float64{append([]float64(nil), sorted[half:]...), append([]float64(nil), sorted[:half]...)}
	if n := diffSortedRuns(runs, sorted); n != 0 {
		t.Fatalf("correct sorted runs differ in %d values", n)
	}
	a, b := runs[1][:particleCols], runs[1][particleCols:2*particleCols]
	for c := range a {
		a[c], b[c] = b[c], a[c]
	}
	if n := diffSortedRuns(runs, sorted); n == 0 {
		t.Error("two swapped sorted rows went unnoticed")
	}
	if n := diffSortedRuns(runs[:1], sorted); n == 0 {
		t.Error("a missing sorted run went unnoticed")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || med != 2 || q3 != 3 {
		t.Errorf("quartiles of 1..3 = %v %v %v, want 1 2 3", q1, med, q3)
	}
	if p := percentile([]float64{5, 1, 4, 2, 3}, 95); p != 5 {
		t.Errorf("p95 of 1..5 = %v, want 5", p)
	}
}

func TestVerdicts(t *testing.T) {
	lower := metricSpec{Name: "x", Better: "lower", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		b    []float64
		want string
	}{
		{[]float64{100, 100, 101, 99, 101}, verdictUnchanged},
		{[]float64{120, 121, 119, 120, 122}, verdictRegressed},
		{[]float64{80, 81, 79, 80, 82}, verdictImproved},
		{[]float64{70, 140, 100, 90, 130}, verdictUnresolved},
	} {
		if got, _ := verdict(base, tc.b, lower); got != tc.want {
			t.Errorf("verdict(%v) = %s, want %s", tc.b, got, tc.want)
		}
	}
	higher := metricSpec{Name: "y", Better: "higher", Bound: 0.10}
	if got, _ := verdict(base, []float64{80, 81, 79, 80, 82}, higher); got != verdictRegressed {
		t.Errorf("a 20%% throughput drop judged %s", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	r := newSpanRecorder("w")
	r.spans = []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60}, // overlaps span 2: counted once
	}
	spans := r.finish()
	if spans[0].Self != 50 || spans[1].Self != 30 || spans[2].Self != 30 {
		t.Errorf("self times %d %d %d, want 50 30 30", spans[0].Self, spans[1].Self, spans[2].Self)
	}
}
