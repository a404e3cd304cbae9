package bench

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"

	"predata/internal/apps/gtc"
	"predata/internal/ops"
	"predata/internal/staging"
)

// result is one registry entry's run: what it printed and the error it
// returned.
type result struct {
	out string
	err error
}

// runEntry runs one registry entry.
func runEntry(name string) result {
	var buf bytes.Buffer
	for _, e := range Experiments("all") {
		if e.Name == name {
			err := e.Run(NewReport(&buf))
			return result{out: buf.String(), err: err}
		}
	}
	return result{err: errors.New("not in the registry")}
}

var memo = struct {
	sync.Mutex
	results map[string]result
}{results: map[string]result{}}

// ran runs a registry entry the first time a test asks for it and hands
// every later caller the same output, so one `go test` runs each
// experiment once however many tests read it (and -count=N re-asserts
// without re-running). A failed experiment fails every test that reads
// it.
func ran(t *testing.T, name string) string {
	t.Helper()
	memo.Lock()
	defer memo.Unlock()
	res, ok := memo.results[name]
	if !ok {
		res = runEntry(name)
		memo.results[name] = res
	}
	if res.err != nil {
		t.Fatalf("%s: %v\n%s", name, res.err, res.out)
	}
	return res.out
}

// prints checks that an experiment's output mentions the expected markers.
func prints(t *testing.T, name string, markers ...string) {
	t.Helper()
	out := ran(t, name)
	for _, m := range markers {
		if !strings.Contains(out, m) {
			t.Errorf("%s output missing %q", name, m)
		}
	}
}

// TestRegistry ranges over the registry: the paper figures and the
// ablations, in order, each of which prints and exits nil.
func TestRegistry(t *testing.T) {
	want := []string{"fig7", "fig8", "fig9", "fig10", "fig11", "offline", "des", "ablations"}
	registry := Experiments("all")
	if len(registry) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(registry), len(want))
	}
	for i, e := range registry {
		if e.Name != want[i] {
			t.Fatalf("registry[%d] is %q, want %q", i, e.Name, want[i])
		}
		t.Run(e.Name, func(t *testing.T) {
			if out := ran(t, e.Name); !strings.Contains(out, "===") {
				t.Errorf("%s printed no section:\n%s", e.Name, out)
			}
		})
	}
}

func TestFig7(t *testing.T) {
	prints(t, "fig7", "sorting operation", "histogram operation", "2D histogram operation",
		"functional mini-run", "16384")
}

func TestFig7UnknownOp(t *testing.T) {
	if err := fig7(NewReport(&bytes.Buffer{}), "bogus"); err == nil {
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
	r, err := pixiePlacements([3]int{4, 4, 2}, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.extents != 32 {
		t.Errorf("unmerged extents %d want 32", r.extents)
	}
	if float64(r.unmergedRead) < 3*float64(r.mergedRead) {
		t.Errorf("unmerged %v not much slower than merged %v", r.unmergedRead, r.mergedRead)
	}
}

func TestOffline(t *testing.T) {
	prints(t, "offline", "offline", "in-transit", "65536", "monitoring")
}

func TestDESCrossCheck(t *testing.T) {
	prints(t, "des", "discrete-event", "16384", "staging wins")
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

// TestLegReturnsConstructorError: an operator constructor that fails is
// the leg's error, not a dump silently run with no operators.
func TestLegReturnsConstructorError(t *testing.T) {
	boom := errors.New("no such operator")
	_, _, err := leg{
		name: "broken", cfg: gtcShape(2, 1, 1), perRank: 10,
		ops: func(int) ([]staging.Operator, error) { return nil, boom },
	}.run()
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
	var total int64
	for _, perDump := range res.StagingResults {
		hists, _ := perDump[0].PerOperator["histogram"]["histograms"].(map[int][]int64)
		for _, bins := range hists {
			for _, n := range bins {
				total += n
			}
		}
	}
	if total != 400 {
		t.Errorf("histogram total %d want 400", total)
	}
}
