package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sort"
)

// measurement is one reported metric. When Value is a median over
// repetitions, Q1/Q3/N/Samples describe the sample behind it; walk rows
// carry the allocation cost of one operation instead.
type measurement struct {
	Name        string    `json:"name"`
	Unit        string    `json:"unit"`
	Value       float64   `json:"value"`
	Q1          float64   `json:"q1,omitempty"`
	Q3          float64   `json:"q3,omitempty"`
	N           int       `json:"n,omitempty"`
	Samples     []float64 `json:"samples,omitempty"`
	BytesPerOp  float64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64   `json:"allocs_per_op,omitempty"`
}

// runRecord is one workload's result from one invocation, with the
// environment it ran in recorded beside the numbers.
type runRecord struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Scale    scale          `json:"scale"`
	Traced   bool           `json:"traced"`
	Env      envRecord      `json:"env"`
	Sizes    map[string]any `json:"sizes"`

	Reps         int       `json:"repetitions"`
	RepSeconds   []float64 `json:"repetition_seconds"`
	PayloadBytes int64     `json:"payload_bytes_per_repetition"`

	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`

	EndToEnd []measurement `json:"end_to_end"`
	PerLayer []measurement `json:"per_layer"`
}

func newRunRecord(w workload, o options, sizes map[string]any) *runRecord {
	return &runRecord{
		Workload: w.name, Seed: o.seed, Scale: o.scale, Traced: o.trace,
		Env: o.env, Sizes: sizes,
	}
}

// medianOf turns per-repetition values into a measurement.
func medianOf(name string, xs []float64) measurement {
	spec, _ := specOf(name)
	q1, med, q3 := quartiles(xs)
	return measurement{Name: name, Unit: spec.Unit, Value: med, Q1: q1, Q3: q3, N: len(xs), Samples: xs}
}

// remainders are the rows defined as what the other shares of their family
// leave over: the run wall no staging stage accounts for (commit fsync,
// checkpoints, start-up and tear-down), and the part of ProcessWall no
// operator phase accounts for — movement: pull, unseal, decode, queueing
// and journal append. Taken from the medians, so each family sums to 1.
var remainders = []struct {
	name  string
	parts []string
}{
	{"predata.unattributed_share", []string{"predata.gather_share", "predata.aggregate_share", "predata.process_share"}},
	{"staging.movement_share", []string{"staging.map_share", "staging.combine_share", "staging.shuffle_share", "staging.reduce_share", "staging.finalize_share"}},
}

func (r *runRecord) setLayer(name string, v float64) {
	spec, _ := specOf(name)
	for i := range r.PerLayer {
		if r.PerLayer[i].Name == name {
			r.PerLayer[i].Value = v
			return
		}
	}
	r.PerLayer = append(r.PerLayer, measurement{Name: name, Unit: spec.Unit, Value: v})
	r.sortLayer()
}

// summarize folds the timed repetitions into the end-to-end metrics (each
// the median over repetitions) and the run rows of the ledger.
func (r *runRecord) summarize(reps []*repResult, setupTimes []float64) {
	r.Reps = len(reps)
	r.PayloadBytes = reps[0].payload
	e2e := map[string][]float64{}
	layer := map[string][]float64{}
	for _, rep := range reps {
		r.RepSeconds = append(r.RepSeconds, rep.wall.Seconds())
		r.countChecks(rep)
		mb := float64(rep.payload) / 1e6
		e2e["throughput_mbps"] = append(e2e["throughput_mbps"], mb/rep.wall.Seconds())
		e2e["write_visible_ms"] = append(e2e["write_visible_ms"], median(rep.visible)*1e3)
		e2e["query_p50_us"] = append(e2e["query_p50_us"], percentile(rep.latency, 50)*1e6)
		e2e["query_p95_us"] = append(e2e["query_p95_us"], percentile(rep.latency, 95)*1e6)
		e2e["cpu_s_per_gb"] = append(e2e["cpu_s_per_gb"], rep.use.cpu/(mb/1e3))
		e2e["alloc_amplification"] = append(e2e["alloc_amplification"], rep.use.allocBytes/float64(rep.payload))
		for k, v := range rep.layer {
			layer[k] = append(layer[k], v)
		}
		layer["runtime.mallocs_per_mb"] = append(layer["runtime.mallocs_per_mb"], rep.use.mallocs/mb)
		layer["runtime.gc_cpu_share"] = append(layer["runtime.gc_cpu_share"], ratio(rep.use.gcCPU, rep.use.cpu))
	}
	e2e["setup_s"] = setupTimes
	for _, spec := range endToEnd {
		r.EndToEnd = append(r.EndToEnd, medianOf(spec.Name, e2e[spec.Name]))
	}
	for name, xs := range layer {
		r.PerLayer = append(r.PerLayer, medianOf(name, xs))
	}
	for _, rem := range remainders {
		rest, reported := 1.0, true
		for _, part := range rem.parts {
			m, ok := r.find(part)
			reported = reported && ok
			rest -= m.Value
		}
		if reported {
			r.setLayer(rem.name, rest)
		}
	}
}

// countChecks adds one repetition's operations and oracle checks to the
// run's verdict. The warm-up and traced repetitions count here too: their
// outputs must be right even though their timings are not used.
func (r *runRecord) countChecks(rep *repResult) {
	r.Attempted += rep.attempted
	r.Failed += rep.failed
	r.Correct = r.Failed == 0
	r.setLayer("fail_ratio", ratio(float64(r.Failed), float64(r.Attempted)))
}

// addTraced adds what only the traced repetition can supply.
func (r *runRecord) addTraced(traced *repResult, reps []*repResult) {
	r.countChecks(traced)
	walls := make([]float64, len(reps))
	for i, rep := range reps {
		walls[i] = rep.wall.Seconds()
	}
	r.setLayer("trace.overhead_ratio", traced.wall.Seconds()/median(walls))
	for _, name := range []string{"fabric.pull_busy_s", "flowctl.throttle_s", "trace.dropped_events"} {
		if v, ok := traced.layer[name]; ok {
			r.setLayer(name, v)
		}
	}
}

func (r *runRecord) addWalk(rows []measurement) {
	r.PerLayer = append(r.PerLayer, rows...)
	r.sortLayer()
}

// sortLayer orders the ledger as the tables in metrics.go do.
func (r *runRecord) sortLayer() {
	order := map[string]int{}
	for _, table := range [][]metricSpec{perLayer, ledgerOnly} {
		for _, s := range table {
			order[s.Name] = len(order)
		}
	}
	sort.SliceStable(r.PerLayer, func(a, b int) bool {
		return order[r.PerLayer[a].Name] < order[r.PerLayer[b].Name]
	})
}

func (r *runRecord) find(name string) (measurement, bool) {
	for _, list := range [][]measurement{r.EndToEnd, r.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return measurement{}, false
}

// resultLine is the contract's last line of standard output: the
// end-to-end metrics of an untraced run, the declared per-layer metrics
// of a traced one (a row the workload cannot supply reads 0).
func (r *runRecord) resultLine() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	specs := endToEnd
	if r.Traced {
		specs = perLayer
	}
	vals := make(map[string]value, len(specs))
	for _, s := range specs {
		m, _ := r.find(s.Name)
		vals[s.Name] = value{Value: m.Value, Unit: s.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, vals})
}

// printTable writes every metric by name with its unit.
func (r *runRecord) printTable(w io.Writer) {
	fmt.Fprintf(w, "== %s  seed=%d scale=%s  %d timed repetitions of %.1f MB (median %.2f s)  correct=%v failed=%d/%d\n",
		r.Workload, r.Seed, r.Scale, r.Reps, float64(r.PayloadBytes)/1e6, median(r.RepSeconds),
		r.Correct, r.Failed, r.Attempted)
	row := func(m measurement) {
		fmt.Fprintf(w, "  %-34s %14.6g %-9s", m.Name, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Fprintf(w, " q1 %-12.6g q3 %-12.6g n=%d", m.Q1, m.Q3, m.N)
		}
		if m.AllocsPerOp > 0 || m.BytesPerOp > 0 {
			fmt.Fprintf(w, " %.0f B/op %.1f allocs/op", m.BytesPerOp, m.AllocsPerOp)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, " end-to-end (median over timed repetitions)")
	for _, m := range r.EndToEnd {
		row(m)
	}
	fmt.Fprintln(w, " per-layer")
	for _, m := range r.PerLayer {
		row(m)
	}
}

// resultFile is a set of runs: what -compare reads.
type resultFile struct {
	Runs []*runRecord `json:"runs"`
}

func loadResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// appendResult adds rec to the set stored at path, creating it if needed.
func appendResult(path string, rec *runRecord) error {
	rf, err := loadResults(path)
	if errors.Is(err, fs.ErrNotExist) {
		rf, err = &resultFile{}, nil
	}
	if err != nil {
		return err
	}
	rf.Runs = append(rf.Runs, rec)
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
