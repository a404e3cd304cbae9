package main

import (
	"math/rand"
	"time"

	"predata/internal/bp"
	"predata/internal/dataspaces"
	"predata/internal/ffs"
	"predata/internal/ops"
	"predata/internal/predata"
	"predata/internal/staging"
)

// pixieVars are Pixie3D's eight output arrays.
var pixieVars = []string{"rho", "px", "py", "pz", "ax", "ay", "az", "temp"}

// pixieGrid is the 2x2x4 process grid of the 16 compute ranks.
var pixieGrid = [3]uint64{2, 2, 4}

var pixieSchema = func() *ffs.Schema {
	s := &ffs.Schema{Name: "pixie3d"}
	for _, v := range pixieVars {
		s.Fields = append(s.Fields, ffs.Field{Name: v, Kind: ffs.KindArray})
	}
	return s
}()

var pixieReorgDurable = workload{
	name: "pixie-reorg-durable",
	why:  "eight small 3-D arrays per record instead of one large 2-D one, and the only workload with the journal (append, commit fsync, checkpoint) and flowctl admission on the path",
	setup: func(seed int64, sc scale, scratch string) (instance, error) {
		local, dumps := uint64(32), 32
		if sc == scaleTiny {
			local, dumps = 4, 9
		}
		fs, err := newPipelineFS()
		if err != nil {
			return nil, err
		}
		global := []uint64{pixieGrid[0] * local, pixieGrid[1] * local, pixieGrid[2] * local}
		cells := local * local * local
		records := make([]ffs.Record, numCompute)
		for r := range records {
			rng := rand.New(rand.NewSource(seed + int64(r)*104729))
			ur := uint64(r)
			offsets := []uint64{
				ur / (pixieGrid[1] * pixieGrid[2]) * local,
				ur / pixieGrid[2] % pixieGrid[1] * local,
				ur % pixieGrid[2] * local,
			}
			rec := ffs.Record{}
			for _, v := range pixieVars {
				data := make([]float64, cells)
				for i := range data {
					data[i] = rng.NormFloat64()
				}
				rec[v] = &ffs.Array{
					Dims: []uint64{local, local, local}, Global: global, Offsets: offsets, Float64: data,
				}
			}
			records[r] = rec
		}
		chunk := int64(cells) * 8 * int64(len(pixieVars))

		t0 := time.Now()
		want := referenceReorg(records, global)
		refD := time.Since(t0)

		mkOps := func(out *bp.Writer) ([]staging.Operator, error) {
			op, err := ops.NewReorgOperator(ops.ReorgConfig{Vars: pixieVars, Output: out})
			return []staging.Operator{op}, err
		}
		const bufferMB, checkpointEvery = 64, 8
		p := &pipelineInstance{
			name: "pixie-reorg-durable", fs: fs, scratch: scratch,
			refB: int64(numCompute) * chunk, refD: refD,
			spec: pipelineSpec{
				dumps: dumps, schema: pixieSchema, records: records, chunkPayload: chunk,
				cfg:     predata.PipelineConfig{BufferMB: bufferMB, CheckpointEvery: checkpointEvery},
				durable: true, opName: "reorg", mkOps: mkOps, bpOutput: true,
				checkFiles: func(readers []*bp.Reader, dump int) int {
					return diffMerged(readers, dump, want)
				},
			},
			sz: map[string]any{
				"compute_ranks": numCompute, "staging_ranks": numStaging, "process_grid": pixieGrid,
				"engine_workers": engineWorkers, "pull_concurrency": pullConcurrency,
				"local_extent": local, "fields": len(pixieVars), "chunk_bytes": chunk,
				"global_dims": global, "dumps_per_repetition": dumps,
				"buffer_mb": bufferMB, "checkpoint_every": checkpointEvery,
			},
		}
		rho := records[0]["rho"].(*ffs.Array)
		p.wk = &walkInput{
			schema: pixieSchema, records: records, payload: chunk, mkOps: mkOps,
			shuffleBytes: int(chunk) * numCompute / numStaging / numStaging,
			budgetBytes:  bufferMB << 20,
			domain:       dataspaces.Domain{Dims: global, BlockSize: []uint64{max(local/2, 1), max(local/2, 1), max(local/2, 1)}},
			putLb:        rho.Offsets, putUb: []uint64{local, local, local}, putData: rho.Float64,
			getLb: rho.Offsets, getUb: []uint64{local, local, local},
			varChunk: bp.VarChunk{Name: "rho", Dims: rho.Dims, Global: global, Offsets: rho.Offsets, Data: rho.Float64},
		}
		return p, nil
	},
}

// referenceReorg is the naive oracle: place every rank's block of every
// field directly into the field's global array, cell by cell.
func referenceReorg(records []ffs.Record, global []uint64) map[string][]float64 {
	out := make(map[string][]float64, len(pixieVars))
	for _, v := range pixieVars {
		g := make([]float64, global[0]*global[1]*global[2])
		for _, rec := range records {
			a := rec[v].(*ffs.Array)
			i := 0
			for x := uint64(0); x < a.Dims[0]; x++ {
				for y := uint64(0); y < a.Dims[1]; y++ {
					for z := uint64(0); z < a.Dims[2]; z++ {
						gx, gy, gz := a.Offsets[0]+x, a.Offsets[1]+y, a.Offsets[2]+z
						g[(gx*global[1]+gy)*global[2]+gz] = a.Float64[i]
						i++
					}
				}
			}
		}
		out[v] = g
	}
	return out
}

// diffMerged reads every merged field back from whichever staging rank's
// file holds it and counts cells that differ from the reference.
func diffMerged(readers []*bp.Reader, dump int, want map[string][]float64) int {
	bad := 0
	for _, v := range pixieVars {
		var got []float64
		for _, r := range readers {
			if data, _, _, err := r.ReadVar(v, int64(dump)); err == nil {
				got = data
				break
			}
		}
		w := want[v]
		if len(got) != len(w) {
			bad += len(w)
			continue
		}
		for i := range w {
			if got[i] != w[i] {
				bad++
			}
		}
	}
	return bad
}
