package main

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"predata/internal/bp"
	"predata/internal/dataspaces"
	"predata/internal/ffs"
	"predata/internal/ops"
	"predata/internal/predata"
	"predata/internal/staging"
)

// Particle columns (the paper's eight GTC attributes).
const (
	colZeta = iota
	colRadial
	colTheta
	colVPar
	colVPerp
	colWeight
	colRank
	colID
	particleCols
)

const histBins = 64

var particleSchema = &ffs.Schema{
	Name:   "particles",
	Fields: []ffs.Field{{Name: "p", Kind: ffs.KindArray}},
}

// gtcSizes are the knobs the two GTC workloads differ in.
type gtcSizes struct {
	rows  int // particles per rank per dump
	dumps int
}

// genParticles builds one rank's particle array: labelled (rank, id),
// then shuffled, which is why the sort operator exists.
func genParticles(rank, n int, seed int64) *ffs.Array {
	rng := rand.New(rand.NewSource(seed + int64(rank)*7919))
	data := make([]float64, n*particleCols)
	for i := 0; i < n; i++ {
		row := data[i*particleCols:]
		row[colZeta] = rng.Float64() * 2 * math.Pi
		row[colRadial] = 0.1 + 0.8*rng.Float64()
		row[colTheta] = rng.Float64() * 2 * math.Pi
		row[colVPar] = rng.NormFloat64()
		row[colVPerp] = math.Abs(rng.NormFloat64())
		row[colWeight] = rng.Float64()
		row[colRank] = float64(rank)
		row[colID] = float64(i)
	}
	rng.Shuffle(n, func(a, b int) {
		ra, rb := data[a*particleCols:(a+1)*particleCols], data[b*particleCols:(b+1)*particleCols]
		for c := range ra {
			ra[c], rb[c] = rb[c], ra[c]
		}
	})
	return &ffs.Array{Dims: []uint64{uint64(n), particleCols}, Float64: data}
}

// gtcInstance is the part of set-up the two GTC workloads share.
func gtcInstance(name string, sz gtcSizes, seed int64, scratch string) (*pipelineInstance, error) {
	fs, err := newPipelineFS()
	if err != nil {
		return nil, err
	}
	records := make([]ffs.Record, numCompute)
	for r := range records {
		records[r] = ffs.Record{"p": genParticles(r, sz.rows, seed)}
	}
	chunk := int64(sz.rows) * particleCols * 8
	p := &pipelineInstance{
		name: name, fs: fs, scratch: scratch,
		spec: pipelineSpec{
			dumps: sz.dumps, schema: particleSchema, records: records, chunkPayload: chunk,
			cfg: predata.PipelineConfig{
				PartialCalculate: ops.MinMaxPartial("p", []int{colZeta, colRadial, colRank}),
				Aggregate:        ops.MinMaxAggregate(),
			},
		},
		sz: map[string]any{
			"compute_ranks": numCompute, "staging_ranks": numStaging,
			"engine_workers": engineWorkers, "pull_concurrency": pullConcurrency,
			"rows_per_rank": sz.rows, "columns": particleCols, "chunk_bytes": chunk,
			"dumps_per_repetition": sz.dumps,
		},
	}
	rows := uint64(sz.rows)
	first := records[0]["p"].(*ffs.Array)
	p.wk = &walkInput{
		schema: particleSchema, records: records, payload: chunk,
		partial: p.spec.cfg.PartialCalculate, aggregate: p.spec.cfg.Aggregate,
		domain: dataspaces.Domain{Dims: []uint64{rows, particleCols}, BlockSize: []uint64{max(rows/32, 1), particleCols}},
		putLb:  []uint64{0, 0}, putUb: []uint64{rows, particleCols}, putData: first.Float64,
		getLb: []uint64{0, 0}, getUb: []uint64{max(rows/16, 1), particleCols},
		varChunk: bp.VarChunk{Name: "p", Dims: first.Dims, Data: first.Float64},
	}
	return p, nil
}

// ---- gtc-hist ----

var gtcHist = workload{
	name: "gtc-hist",
	why:  "movement-bound: a cheap Map and a 64-bin shuffle, so Write, ffs, seal, fabric pull, decode and evpath do most of the work",
	setup: func(seed int64, sc scale, scratch string) (instance, error) {
		sz := gtcSizes{rows: 65536, dumps: 32}
		if sc == scaleTiny {
			sz = gtcSizes{rows: 512, dumps: 4}
		}
		p, err := gtcInstance("gtc-hist", sz, seed, scratch)
		if err != nil {
			return nil, err
		}
		cols := []int{colZeta, colRadial}
		t0 := time.Now()
		want := referenceHistograms(p.spec.records, cols)
		p.refB, p.refD = int64(numCompute)*p.spec.chunkPayload, time.Since(t0)

		p.spec.opName = "histogram"
		p.spec.mkOps = func(*bp.Writer) ([]staging.Operator, error) {
			op, err := ops.NewHistogramOperator(ops.HistogramConfig{
				Var: "p", Columns: cols, Bins: histBins, AggRanges: true,
			})
			return []staging.Operator{op}, err
		}
		p.spec.checkDump = func(results []*staging.Result) int {
			return diffHistograms(stagedHistograms(results), want)
		}
		p.wk.mkOps = p.spec.mkOps
		p.wk.shuffleBytes = histBins * 8
		return p, nil
	},
}

// referenceHistograms is the naive oracle: global min/max, then direct
// binning of every row of every rank, one goroutine.
func referenceHistograms(records []ffs.Record, cols []int) map[int][]int64 {
	out := make(map[int][]int64, len(cols))
	for _, c := range cols {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, rec := range records {
			a := rec["p"].(*ffs.Array)
			for i := c; i < len(a.Float64); i += particleCols {
				lo, hi = math.Min(lo, a.Float64[i]), math.Max(hi, a.Float64[i])
			}
		}
		counts := make([]int64, histBins)
		for _, rec := range records {
			a := rec["p"].(*ffs.Array)
			for i := c; i < len(a.Float64); i += particleCols {
				b := int(float64(histBins) * (a.Float64[i] - lo) / (hi - lo))
				b = min(max(b, 0), histBins-1)
				counts[b]++
			}
		}
		out[c] = counts
	}
	return out
}

// stagedHistograms merges the histograms the staging ranks own.
func stagedHistograms(results []*staging.Result) map[int][]int64 {
	got := map[int][]int64{}
	for _, r := range results {
		hs, _ := r.PerOperator["histogram"]["histograms"].(map[int][]int64)
		for c, counts := range hs {
			got[c] = counts
		}
	}
	return got
}

// diffHistograms counts bins that differ (a missing column counts whole).
func diffHistograms(got, want map[int][]int64) int {
	bad := 0
	for c, w := range want {
		g := got[c]
		if len(g) != len(w) {
			bad += len(w)
			continue
		}
		for i := range w {
			if g[i] != w[i] {
				bad++
			}
		}
	}
	return bad
}

// ---- gtc-sort ----

var gtcSort = workload{
	name: "gtc-sort",
	why:  "shuffle-, operator- and output-bound: every row crosses the staging all-to-all, Reduce sorts, Finalize writes through bp/pfs; movement does little here",
	setup: func(seed int64, sc scale, scratch string) (instance, error) {
		sz := gtcSizes{rows: 65536, dumps: 8}
		if sc == scaleTiny {
			sz = gtcSizes{rows: 512, dumps: 3}
		}
		p, err := gtcInstance("gtc-sort", sz, seed, scratch)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		want := referenceSort(p.spec.records)
		p.refB, p.refD = int64(numCompute)*p.spec.chunkPayload, time.Since(t0)

		p.spec.opName = "sort"
		p.spec.bpOutput = true
		p.spec.mkOps = func(out *bp.Writer) ([]staging.Operator, error) {
			op, err := ops.NewSortOperator(ops.SortConfig{
				Var: "p", KeyMajor: colRank, KeyMinor: colID, AggFromColumn: true, Output: out,
			})
			return []staging.Operator{op}, err
		}
		p.spec.checkDump = func(results []*staging.Result) int {
			var rows int64
			for _, r := range results {
				n, _ := r.PerOperator["sort"]["rows"].(int64)
				rows += n
			}
			if rows != int64(len(want)/particleCols) {
				return 1
			}
			return 0
		}
		p.spec.checkFiles = func(readers []*bp.Reader, dump int) int {
			var runs [][]float64
			for _, r := range readers {
				data, _, _, err := r.ReadVar("p_sorted", int64(dump))
				if err != nil {
					return 1
				}
				runs = append(runs, data)
			}
			return diffSortedRuns(runs, want)
		}
		p.wk.mkOps = p.spec.mkOps
		p.wk.shuffleBytes = int(p.spec.chunkPayload) * numCompute / numStaging / numStaging
		return p, nil
	},
}

// referenceSort is the naive oracle: concatenate every rank's rows and
// sort.Slice them by (rank, id).
func referenceSort(records []ffs.Record) []float64 {
	var all []float64
	for _, rec := range records {
		all = append(all, rec["p"].(*ffs.Array).Float64...)
	}
	n := len(all) / particleCols
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ra, rb := all[idx[a]*particleCols:], all[idx[b]*particleCols:]
		if ra[colRank] != rb[colRank] {
			return ra[colRank] < rb[colRank]
		}
		return ra[colID] < rb[colID]
	})
	out := make([]float64, 0, len(all))
	for _, i := range idx {
		out = append(out, all[i*particleCols:(i+1)*particleCols]...)
	}
	return out
}

// diffSortedRuns counts values that differ between the staging ranks'
// sorted runs — ordered by their first key and laid end to end — and the
// fully sorted reference.
func diffSortedRuns(runs [][]float64, want []float64) int {
	var kept [][]float64
	for _, run := range runs {
		if len(run) > 0 {
			kept = append(kept, run)
		}
	}
	sort.Slice(kept, func(a, b int) bool { return kept[a][colRank] < kept[b][colRank] })
	bad, off := 0, 0
	for _, run := range kept {
		for i, v := range run {
			if off+i >= len(want) || want[off+i] != v {
				bad++
			}
		}
		off += len(run)
	}
	if off < len(want) {
		bad += len(want) - off
	}
	return bad
}
