package bench

import (
	"fmt"
	"time"

	"predata/internal/bp"
	"predata/internal/ffs"
	"predata/internal/model"
	"predata/internal/mpi"
	"predata/internal/ops"
	"predata/internal/pfs"
	"predata/internal/predata"
	"predata/internal/staging"
)

// fig11 regenerates the merged-vs-unmerged read comparison, from both the
// calibrated model at the paper's 4,096-core scale and a functional run
// in which the real staging pipeline produces the merged file.
func fig11(rp *Report) error {
	m := model.JaguarXT4()
	rp.header("Fig. 11 — read time of one global array: merged vs unmerged BP files")
	rp.printf("%8s %12s %12s %14s %10s\n",
		"cores", "merged (s)", "unmerged (s)", "extents", "speedup")
	for _, cores := range model.PixieScales {
		r := m.PixieRead(cores)
		rp.printf("%8d %12.2f %12.2f %14d %9.1fx\n",
			cores, r.MergedSeconds, r.UnmergedRead, r.UnmergedChunks, r.Speedup)
	}

	merged, unmerged, chunks, err := fig11Functional(64, 16)
	if err != nil {
		return err
	}
	rp.header("Fig. 11 — functional mini-run (real BP files on the modeled file system)")
	rp.printf("64 writers, 16^3 local arrays: unmerged %v (%d extents) vs merged %v -> %.1fx\n",
		unmerged.Round(time.Millisecond), chunks, merged.Round(time.Millisecond),
		float64(unmerged)/float64(merged))
	return nil
}

// fig11Functional writes one Pixie3D-like global array both ways — the
// unmerged layout directly from compute writers, and the merged layout
// through the real staging ReorgOperator — then reads it back from each
// file and returns the modeled read durations.
func fig11Functional(writers, local int) (mergedRead, unmergedRead time.Duration, unmergedChunks int, err error) {
	fs, err := pfs.New(pfs.Config{
		NumOSTs:      16,
		OSTBandwidth: 500e6,
		StripeSize:   1 << 20,
		OpLatency:    10 * time.Millisecond,
		Seed:         1,
	})
	if err != nil {
		return 0, 0, 0, err
	}
	// The global array is a 1D stack of the writers' local cubes.
	n := local * local * local
	global := []uint64{uint64(writers * n)}

	// Unmerged: every writer appends its own chunk (ADIOS MPI-IO layout).
	unmergedW, err := bp.CreateWriter(fs, "unmerged.bp", 4)
	if err != nil {
		return 0, 0, 0, err
	}
	schema := &ffs.Schema{Name: "pixie", Fields: []ffs.Field{{Name: "rho", Kind: ffs.KindArray}}}
	chunkOf := func(rank int) *ffs.Array {
		data := make([]float64, n)
		for i := range data {
			data[i] = float64(rank*n + i)
		}
		return &ffs.Array{
			Dims: []uint64{uint64(n)}, Global: global,
			Offsets: []uint64{uint64(rank * n)}, Float64: data,
		}
	}
	for rank := 0; rank < writers; rank++ {
		arr := chunkOf(rank)
		if _, err := unmergedW.WritePG(rank, 0, []bp.VarChunk{{
			Name: "rho", Dims: arr.Dims, Global: arr.Global, Offsets: arr.Offsets, Data: arr.Float64,
		}}); err != nil {
			return 0, 0, 0, err
		}
	}
	if _, err := unmergedW.Close(); err != nil {
		return 0, 0, 0, err
	}

	// Merged: the same chunks stream through the PreDatA pipeline and the
	// reorg operator writes one contiguous array.
	mergedW, err := bp.CreateWriter(fs, "merged.bp", 4)
	if err != nil {
		return 0, 0, 0, err
	}
	cfg := predata.PipelineConfig{NumCompute: writers, NumStaging: 2, Dumps: 1}
	operators := &checkedOps{build: func(int) ([]staging.Operator, error) {
		return one(ops.NewReorgOperator(ops.ReorgConfig{Vars: []string{"rho"}, Output: mergedW}))
	}}
	_, err = predata.RunPipeline(cfg,
		func(comm *mpi.Comm, client *predata.Client) error {
			arr := chunkOf(comm.Rank())
			_, err := client.Write(schema, ffs.Record{"rho": arr}, 0)
			return err
		},
		operators.factory)
	if err = operators.after(err); err != nil {
		return 0, 0, 0, err
	}
	if _, err := mergedW.Close(); err != nil {
		return 0, 0, 0, err
	}

	// Read one global array from each file; the modeled durations carry
	// the per-extent latency difference.
	ru, err := bp.OpenReader(fs, "unmerged.bp")
	if err != nil {
		return 0, 0, 0, err
	}
	dataU, _, du, err := ru.ReadVar("rho", 0)
	if err != nil {
		return 0, 0, 0, err
	}
	rm, err := bp.OpenReader(fs, "merged.bp")
	if err != nil {
		return 0, 0, 0, err
	}
	dataM, _, dm, err := rm.ReadVar("rho", 0)
	if err != nil {
		return 0, 0, 0, err
	}
	// Sanity: both layouts return identical data.
	if len(dataU) != len(dataM) {
		return 0, 0, 0, fmt.Errorf("bench: layout mismatch: %d vs %d elements", len(dataU), len(dataM))
	}
	for i := range dataU {
		if dataU[i] != dataM[i] {
			return 0, 0, 0, fmt.Errorf("bench: merged file corrupt at element %d", i)
		}
	}
	var info bp.VarInfo
	for _, vi := range ru.Vars() {
		if vi.Name == "rho" {
			info = vi
		}
	}
	return dm, du, info.Chunks, nil
}
