package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"predata/internal/apps/gtc"
	"predata/internal/ops"
	"predata/internal/staging"
)

// result is one registry entry's run: what it printed, the document it
// emitted, and the error it returned.
type result struct {
	out string
	doc []byte
	err error
}

// runEntry runs one registry entry and emits its document under dir.
func runEntry(name, dir string) (res result) {
	var buf bytes.Buffer
	defer func() { res.out = buf.String() }()
	rep, err := NewReport(&buf)
	if err != nil {
		return result{err: err}
	}
	for _, e := range Experiments("all") {
		if e.Name != name {
			continue
		}
		if err := e.Run(rep); err != nil {
			return result{err: err}
		}
		path := filepath.Join(dir, name+".json")
		if err := rep.Emit(path); err != nil {
			return result{err: err}
		}
		doc, err := os.ReadFile(path)
		return result{doc: doc, err: err}
	}
	return result{err: errors.New("not in the registry")}
}

var memo = struct {
	sync.Mutex
	results map[string]result
}{results: map[string]result{}}

// ran runs a registry entry the first time a test asks for it and hands
// every later caller the same output and JSON document, so one `go test`
// runs each experiment once however many tests read it (and -count=N
// re-asserts without re-running). A failed experiment fails every test
// that reads it.
func ran(t *testing.T, name string) (out string, doc []byte) {
	t.Helper()
	memo.Lock()
	defer memo.Unlock()
	res, ok := memo.results[name]
	if !ok {
		res = runEntry(name, t.TempDir())
		memo.results[name] = res
	}
	if res.err != nil {
		t.Fatalf("%s: %v\n%s", name, res.err, res.out)
	}
	return res.out, res.doc
}

// prints checks that an experiment's output mentions the expected markers.
func prints(t *testing.T, name string, markers ...string) {
	t.Helper()
	out, _ := ran(t, name)
	for _, m := range markers {
		if !strings.Contains(out, m) {
			t.Errorf("%s output missing %q", name, m)
		}
	}
}

// TestRegistry ranges over the registry: every experiment exits nil (its
// gates are part of the call) and emits the one document shape — the
// seed, and for an experiment with legs one section holding its
// parameters and one row per leg with the keys its consumers read.
func TestRegistry(t *testing.T) {
	wants := []struct {
		name   string
		legs   int
		params string
		keys   string
	}{
		{name: "fig7"}, {name: "fig8"}, {name: "fig9"}, {name: "fig10"}, {name: "fig11"},
		{name: "offline"}, {name: "des"},
		{name: "chaos", legs: 3,
			keys: "name wall_ms transients retries degraded_dumps data_loss"},
		{name: "overload", legs: 4,
			keys: "name wall_ms budget_bytes throttles throttle_wait_ms spilled_chunks spilled_bytes replayed_chunks sampled_chunks shed_chunks passed_chunks passed_bytes peak_bytes max_level shed_operators degraded_dumps data_loss"},
		{name: "trace", legs: 3, params: "overhead_pct",
			keys: "name wall_ms events dropped collective_groups shuffle_edges replay_checks"},
		{name: "elastic", legs: 3, params: "base_frames burst_factors",
			keys: "name staging_ranks wall_ms dump_mean_ms dump_max_ms spilled_bytes passed_bytes shed_chunks throttles rank_dumps grows shrinks min_active max_active data_loss"},
		{name: "adversary", legs: 5, params: "writers staging dumps",
			keys: "name wall_ms goodput_mval_s corruptions corrupt_pulls corrupt_drops unreachables fenced_dumps heals rerouted_dumps recovery_ms hedged_pulls hedge_wins degraded_dumps data_loss"},
		{name: "restart", legs: 5, params: "writers staging dumps",
			keys: "name wall_ms goodput_mval_s wal_records wal_bytes journal_ms journal_pct checkpoints restarts wal_replayed rerouted_dumps spilled_chunks degraded_dumps data_loss"},
		{name: "serve", legs: 3, params: "versions rows_per_version cache_comparison",
			keys: "name tenants ingested_mb ingest_wall_ms ingest_mbps queries query_p50_us query_p99_us cache_hits cache_hit_rate admission_waits tenant_checks cache_checks"},
		{name: "ablations"},
	}
	sorted := func(m map[string]any) string {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return strings.Join(keys, " ")
	}
	sortedWords := func(s string) string {
		words := strings.Fields(s)
		sort.Strings(words)
		return strings.Join(words, " ")
	}
	registry := Experiments("all")
	if len(registry) != len(wants) {
		t.Fatalf("registry has %d experiments, the table %d", len(registry), len(wants))
	}
	for i, e := range registry {
		want := wants[i]
		if e.Name != want.name {
			t.Fatalf("registry[%d] is %q, the table says %q", i, e.Name, want.name)
		}
		t.Run(e.Name, func(t *testing.T) {
			_, raw := ran(t, e.Name)
			var doc struct {
				Seed        *int64
				Experiments []struct {
					Experiment string
					Params     map[string]any
					Runs       []map[string]any
				}
			}
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Fatalf("document unparsable: %v\n%s", err, raw)
			}
			if doc.Seed == nil || doc.Experiments == nil {
				t.Fatalf("document lacks seed or experiments:\n%s", raw)
			}
			if want.legs == 0 {
				if len(doc.Experiments) != 0 {
					t.Fatalf("%d sections from an experiment without legs", len(doc.Experiments))
				}
				return
			}
			if len(doc.Experiments) != 1 || doc.Experiments[0].Experiment != e.Name {
				t.Fatalf("want one %q section:\n%s", e.Name, raw)
			}
			sec := doc.Experiments[0]
			if got := sorted(sec.Params); got != sortedWords(want.params) {
				t.Errorf("params keys %q, want %q", got, sortedWords(want.params))
			}
			if len(sec.Runs) != want.legs {
				t.Fatalf("%d legs, want %d", len(sec.Runs), want.legs)
			}
			for _, leg := range sec.Runs {
				if got := sorted(leg); got != sortedWords(want.keys) {
					t.Errorf("leg %v keys %q, want %q", leg["name"], got, sortedWords(want.keys))
				}
			}
		})
	}
}

func TestFig7(t *testing.T) {
	prints(t, "fig7", "sorting operation", "histogram operation", "2D histogram operation",
		"functional mini-run", "16384")
}

func TestFig7UnknownOp(t *testing.T) {
	rep, err := NewReport(&bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fig7(rep, "bogus"); err == nil {
		t.Fatal("unknown operator accepted")
	}
}

func TestFig8(t *testing.T) {
	prints(t, "fig8", "improvement", "CPU saving", "headlines at 16,384 cores", "paper: 8.6s")
}

func TestFig9(t *testing.T) {
	prints(t, "fig9", "DataSpaces", "fetch", "paper: 20.3s")
}

func TestFig10(t *testing.T) {
	prints(t, "fig10", "Pixie3D", "slowdown", "0.01%-0.7%")
}

func TestFig11(t *testing.T) {
	prints(t, "fig11", "merged vs unmerged", "functional mini-run", "speedup")
}

func TestFig11FunctionalGap(t *testing.T) {
	merged, unmerged, chunks, err := fig11Functional(32, 8)
	if err != nil {
		t.Fatal(err)
	}
	if chunks != 32 {
		t.Errorf("unmerged extents %d want 32", chunks)
	}
	if float64(unmerged) < 3*float64(merged) {
		t.Errorf("unmerged %v not much slower than merged %v", unmerged, merged)
	}
}

func TestOffline(t *testing.T) {
	prints(t, "offline", "offline", "in-transit", "65536", "monitoring")
}

func TestDESCrossCheck(t *testing.T) {
	prints(t, "des", "discrete-event", "16384", "staging wins")
}

func TestChaosFaultExperiment(t *testing.T) {
	prints(t, "chaos", "fault-free", "transient", "crash", "lossless")
}

func TestOverloadExperiment(t *testing.T) {
	prints(t, "overload", "degradation ladder", "unconstrained", "spill", "shed", "lossless")
}

func TestTraceExperiment(t *testing.T) {
	prints(t, "trace", "trace overhead", "untraced", "64:1", "ordering invariants")
}

func TestElasticExperiment(t *testing.T) {
	prints(t, "elastic", "staging autoscaling", "static-small", "static-large", "elastic", "zero frames lost")
}

func TestAdversaryExperiment(t *testing.T) {
	prints(t, "adversary", "fault-free", "wire corrupt", "partition", "straggler", "no silent loss")
}

func TestRestartExperiment(t *testing.T) {
	prints(t, "restart", "no journal", "journal clean", "single restart", "crashall replay", "no silent loss")
}

func TestServeExperiment(t *testing.T) {
	prints(t, "serve", "single-tenant", "fair-share-4", "query-storm-16", "cache on repeated regions", "verified isolation")
}

func TestAblationScheduling(t *testing.T) {
	prints(t, "ablations", "scheduled vs unscheduled", "unscheduled improvement")
}

func TestAblationCombine(t *testing.T) {
	prints(t, "ablations", "shuffle-volume reduction")
}

func TestAblationRatio(t *testing.T) {
	prints(t, "ablations", "64:1", "256:1", "fits 120s")
}

func TestAblationBitmap(t *testing.T) {
	prints(t, "ablations", "indexed", "full scan")
}

func TestAblationFunctionalScaling(t *testing.T) {
	prints(t, "ablations", "weak-scaling", "particles/rank", "map time")
}

// TestFaultSeedFromEnvironment pins the seed's one entry point: a value
// that does not parse is an error for every experiment (no report, no
// run), not a silent seed 1; a good one reaches the banner and the
// document.
func TestFaultSeedFromEnvironment(t *testing.T) {
	t.Setenv("PREDATA_FAULT_SEED", "4x")
	if _, err := NewReport(&bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "PREDATA_FAULT_SEED") {
		t.Fatalf("unparsable seed accepted: %v", err)
	}

	t.Setenv("PREDATA_FAULT_SEED", "42")
	var buf bytes.Buffer
	rep, err := NewReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rep.seeded("Chaos")
	if !strings.Contains(buf.String(), "Chaos (seed 42)") {
		t.Errorf("banner %q does not carry seed 42", buf.String())
	}
	path := filepath.Join(t.TempDir(), "doc.json")
	if err := rep.Emit(path); err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(doc), `"seed": 42`) {
		t.Errorf("document does not carry seed 42:\n%s", doc)
	}
}

// TestRowIsTableAndJSON renders one row both ways: keyed cells reach the
// JSON object in row order, cells with a column header reach the table,
// and nothing is written without a path.
func TestRowIsTableAndJSON(t *testing.T) {
	t.Setenv("PREDATA_FAULT_SEED", "")
	var buf bytes.Buffer
	rep, err := NewReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rep.section("demo", row{{"shape", 3, "", ""}}, []row{{
		{"name", "leg one", "run", "%s"},
		{"spilled_bytes", int64(3 << 20), "", ""},
		{"", 3.0, "spillMB", "%.2f"},
		{"inner", row{{"speedup", 4.5, "", ""}}, "", ""},
	}})
	if got, want := buf.String(), "run      spillMB\nleg one  3.00\n"; got != want {
		t.Errorf("table %q, want %q", got, want)
	}
	if err := rep.Emit(""); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "doc.json")
	if err := rep.Emit(path); err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, doc); err != nil {
		t.Fatal(err)
	}
	want := `{"seed":1,"experiments":[{"experiment":"demo","params":{"shape":3},` +
		`"runs":[{"name":"leg one","spilled_bytes":3145728,"inner":{"speedup":4.5}}]}]}`
	if compact.String() != want {
		t.Errorf("document %s\nwant     %s", compact.String(), want)
	}
}

// TestLegReturnsConstructorError: an operator constructor that fails is
// the leg's error, not a dump silently run with no operators.
func TestLegReturnsConstructorError(t *testing.T) {
	boom := errors.New("no such operator")
	_, err := leg{
		name: "broken", cfg: gtcShape(2, 1, 1), perRank: 10,
		ops: func(int) ([]staging.Operator, error) { return nil, boom },
	}.run(1)
	if !errors.Is(err, boom) {
		t.Fatalf("run returned %v, want the constructor's error", err)
	}
}

func TestMiniPipelineCounts(t *testing.T) {
	res, wall, err := MiniPipeline(4, 2, 100, func(int) []staging.Operator {
		op, err := ops.NewHistogramOperator(ops.HistogramConfig{
			Var: "p", Columns: []int{gtc.AttrZeta}, Bins: 8, AggRanges: true,
		})
		if err != nil {
			t.Error(err)
			return nil
		}
		return []staging.Operator{op}
	})
	if err != nil {
		t.Fatal(err)
	}
	if wall <= 0 {
		t.Errorf("wall %v", wall)
	}
	if total := census(res, 1)[0]; total != 400 {
		t.Errorf("histogram total %d want 400", total)
	}
}
