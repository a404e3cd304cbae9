package main

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"predata/internal/bp"
	"predata/internal/ffs"
	"predata/internal/mpi"
	"predata/internal/pfs"
	"predata/internal/predata"
	"predata/internal/staging"
	"predata/internal/trace"
)

// Shape shared by the three pipeline workloads (fixed, not scaled with
// nproc, so numbers compare across machines).
const (
	numCompute      = 16
	numStaging      = 2
	engineWorkers   = 2
	pullConcurrency = 2
	// pacePoll is how often a compute rank re-checks its output buffer.
	pacePoll = 200 * time.Microsecond
	// pipelineTimeout bounds one repetition and every pacing wait in it.
	pipelineTimeout = 2 * time.Minute
)

// pipelineSpec is what distinguishes one pipeline workload from another;
// the runner below is common to all three.
type pipelineSpec struct {
	dumps  int
	schema *ffs.Schema
	// records[rank] is the rank's output, generated once in set-up and
	// written again every dump.
	records []ffs.Record
	// chunkPayload is the array-data bytes of one record.
	chunkPayload int64
	// cfg carries the workload's hooks and knobs; sizes, WAL directory
	// and tracer are filled in per repetition.
	cfg predata.PipelineConfig
	// durable journals every repetition into a fresh directory.
	durable bool
	// opName is the operator's name in staging results.
	opName string
	// mkOps builds one staging rank's operator list for one dump; out is
	// the rank's BP file for that dump (nil when the workload writes none).
	mkOps func(out *bp.Writer) ([]staging.Operator, error)
	// bpOutput gives every (dump, staging rank) its own BP file.
	bpOutput bool
	// checkDump compares one dump's per-rank results with the reference
	// and returns the number of mismatches.
	checkDump func(results []*staging.Result) int
	// checkFiles compares one dump's BP files with the reference.
	checkFiles func(readers []*bp.Reader, dump int) int
}

type pipelineInstance struct {
	name    string
	spec    pipelineSpec
	fs      *pfs.FileSystem
	scratch string
	sz      map[string]any
	refB    int64
	refD    time.Duration
	wk      *walkInput
}

func (p *pipelineInstance) sizes() map[string]any { return p.sz }

func (p *pipelineInstance) reference() (int64, time.Duration) { return p.refB, p.refD }

func (p *pipelineInstance) walk() *walkInput { return p.wk }

func (p *pipelineInstance) close() error { return nil }

// newPipelineFS builds the in-memory parallel file system the BP output
// lands on. No variability: modeled times repeat exactly.
func newPipelineFS() (*pfs.FileSystem, error) {
	return pfs.New(pfs.Config{
		NumOSTs: 16, OSTBandwidth: 500e6, StripeSize: 1 << 20,
		OpLatency: 5 * time.Millisecond, Seed: 1,
	})
}

// dumpFiles hands every (dump, staging rank) its own BP file on the
// in-memory file system and retires dump d-2's files when dump d's first
// file is created. One file per dump and rank, never one growing file: a
// single file reallocates on every append and made the sort pipeline 3-5x
// slower and unrepeatable. Separate files per rank because bp.Reader
// cannot reassemble a local (non-global) variable written by two ranks,
// and the oracle reads every row back.
type dumpFiles struct {
	fs   *pfs.FileSystem
	name string

	mu      sync.Mutex
	writers map[int][]*bp.Writer
	err     error
}

func (df *dumpFiles) fileName(dump, i int) string {
	return fmt.Sprintf("%s-d%d-r%d.bp", df.name, dump, i)
}

// create opens the calling rank's file for dump. A staging rank asks for
// dump d only after finishing d-1, and d-1's shuffle needed every rank to
// have finished d-2, so d-2's files are complete by now.
func (df *dumpFiles) create(dump int) (*bp.Writer, error) {
	df.mu.Lock()
	defer df.mu.Unlock()
	if len(df.writers[dump]) == 0 {
		df.retireLocked(dump - 2)
	}
	w, err := bp.CreateWriter(df.fs, df.fileName(dump, len(df.writers[dump])), 8)
	if err != nil {
		return nil, err
	}
	df.writers[dump] = append(df.writers[dump], w)
	return w, nil
}

func (df *dumpFiles) retireLocked(dump int) {
	for i := range df.writers[dump] {
		if err := df.fs.Remove(df.fileName(dump, i)); err != nil && df.err == nil {
			df.err = err
		}
	}
	delete(df.writers, dump)
}

// open finalizes dump's files and opens them for reading.
func (df *dumpFiles) open(dump int) ([]*bp.Reader, error) {
	df.mu.Lock()
	defer df.mu.Unlock()
	var readers []*bp.Reader
	for i, w := range df.writers[dump] {
		if _, err := w.Close(); err != nil {
			return nil, err
		}
		r, err := bp.OpenReader(df.fs, df.fileName(dump, i))
		if err != nil {
			return nil, err
		}
		readers = append(readers, r)
	}
	return readers, nil
}

// removeAll drops whatever files are left, on every path.
func (df *dumpFiles) removeAll() error {
	df.mu.Lock()
	defer df.mu.Unlock()
	for dump := range df.writers {
		df.retireLocked(dump)
	}
	return df.err
}

// rep runs one repetition: every compute rank writes its record once per
// dump, paced like an ADIOS output buffer, while the staging ranks serve
// the dumps; then the outputs are compared with the reference.
func (p *pipelineInstance) rep(sp *spanRecorder) (res *repResult, err error) {
	spec := &p.spec
	cfg := spec.cfg
	cfg.NumCompute, cfg.NumStaging, cfg.Dumps = numCompute, numStaging, spec.dumps
	cfg.Engine = staging.Config{Workers: engineWorkers}
	cfg.PullConcurrency = pullConcurrency
	cfg.Timeout = pipelineTimeout

	var rec *trace.Recorder
	if sp != nil {
		// Sized to hold a whole repetition: a wrapped ring would
		// under-count the pull and throttle totals read from it.
		rec = trace.New(trace.Config{
			Shards: 16, ShardCapacity: 1 << 15,
			NumCompute: numCompute, NumStaging: numStaging, Dumps: spec.dumps,
		})
		cfg.Tracer = rec
	}
	if spec.durable {
		dir, err := os.MkdirTemp(p.scratch, "wal-")
		if err != nil {
			return nil, err
		}
		defer func() { err = errors.Join(err, os.RemoveAll(dir)) }()
		cfg.WALDir = dir
		cfg.Overload.SpillDir = dir
	}
	files := &dumpFiles{fs: p.fs, name: p.name, writers: map[int][]*bp.Writer{}}
	defer func() { err = errors.Join(err, files.removeAll()) }()

	var (
		opsMu  sync.Mutex
		opsErr error
	)
	opsFor := func(dump int) []staging.Operator {
		var out *bp.Writer
		var err error
		if spec.bpOutput {
			out, err = files.create(dump)
		}
		var ops []staging.Operator
		if err == nil {
			ops, err = spec.mkOps(out)
		}
		if err != nil {
			opsMu.Lock()
			opsErr = errors.Join(opsErr, err)
			opsMu.Unlock()
		}
		return ops
	}

	visible := make([][]float64, numCompute)
	for r := range visible {
		visible[r] = make([]float64, spec.dumps)
	}
	var (
		firstWrite sync.Once
		start      time.Time
	)
	repSpan := sp.begin("repetition", 0, -1)
	runSpan := sp.begin("predata.RunPipeline", repSpan, -1)
	m := startMeter()
	pres, err := predata.RunPipeline(cfg, func(comm *mpi.Comm, client *predata.Client) error {
		rank := comm.Rank()
		ep := client.Endpoint()
		var oneChunk int64
		for d := 0; d < spec.dumps; d++ {
			// Model the ADIOS output buffer: it holds one chunk, so dump d
			// is packed only once all but one earlier chunk has been
			// pulled. Unpaced, every dump is exposed at once (2 GiB
			// resident) and the run measures the allocator.
			deadline := time.Now().Add(pipelineTimeout)
			for d > 0 && ep.ExposedBytes() > oneChunk {
				if time.Now().After(deadline) {
					return fmt.Errorf("rank %d dump %d: output buffer never drained", rank, d)
				}
				time.Sleep(pacePoll)
			}
			firstWrite.Do(func() { start = time.Now() })
			ws := sp.begin("predata.Client.Write", runSpan, d)
			v, err := client.Write(spec.schema, spec.records[rank], int64(d))
			sp.end(ws)
			if err != nil {
				return err
			}
			visible[rank][d] = v.Seconds()
			if d == 0 {
				oneChunk = client.PackedBytes
			}
		}
		return nil
	}, opsFor)
	use := m.stop()
	wall := time.Since(start)
	sp.end(runSpan)
	if err == nil {
		err = opsErr
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.name, err)
	}

	res = &repResult{
		payload: int64(numCompute) * int64(spec.dumps) * spec.chunkPayload,
		wall:    wall,
		use:     use,
	}
	for _, perRank := range visible {
		res.visible = append(res.visible, perRank...)
	}
	res.layer = p.ledger(pres, res, rec)

	// Oracle, outside the timed interval: every write, every dump's
	// result, and the BP files still on the file system (the last two
	// dumps; earlier ones were retired to bound memory).
	vs := sp.begin("verify", repSpan, -1)
	res.attempted = int64(numCompute*spec.dumps) + int64(spec.dumps)
	for d := 0; d < spec.dumps; d++ {
		perRank := make([]*staging.Result, numStaging)
		bad := 0
		for r := range perRank {
			perRank[r] = pres.StagingResults[r][d]
			if perRank[r].Degraded {
				bad++
			}
		}
		if bad == 0 && spec.checkDump != nil {
			bad = spec.checkDump(perRank)
		}
		if bad > 0 {
			res.failed++
		}
	}
	if spec.bpOutput {
		for d := max(0, spec.dumps-2); d < spec.dumps; d++ {
			res.attempted++
			readers, err := files.open(d)
			if err != nil {
				return nil, fmt.Errorf("%s: reading back dump %d: %w", p.name, d, err)
			}
			if spec.checkFiles(readers, d) > 0 {
				res.failed++
			}
		}
	}
	if ov := pres.Overload; ov != nil && ov.SpilledChunks > 0 {
		// Admission is meant to be active but never overloaded.
		res.attempted++
		res.failed++
	}
	sp.end(vs)
	sp.end(repSpan)
	return res, nil
}

// ledger derives the run rows of the per-layer ledger from the public
// result structs of one repetition.
func (p *pipelineInstance) ledger(pres *predata.PipelineResult, res *repResult, rec *trace.Recorder) map[string]float64 {
	spec := &p.spec
	wall := res.wall.Seconds()
	gb := float64(res.payload) / 1e9
	var gather, aggregate, process, pulled, pullModeled float64
	phases := map[string]float64{}
	opPhases := map[string]float64{}
	for d := 0; d < spec.dumps; d++ {
		var slowest float64
		for r := 0; r < numStaging; r++ {
			st := pres.StagingStats[r][d]
			gather += st.GatherWall.Seconds()
			aggregate += st.AggregateWall.Seconds()
			process += st.ProcessWall.Seconds()
			pulled += float64(st.BytesPulled)
			pullModeled += st.PullModeled.Seconds()
			slowest = max(slowest, (st.GatherWall + st.AggregateWall + st.ProcessWall).Seconds())
			sr := pres.StagingResults[r][d]
			for _, ph := range sr.Breakdown.Names() {
				phases[ph] += sr.Breakdown.Get(ph).Seconds()
			}
			if bd := sr.OperatorBreakdown[spec.opName]; bd != nil {
				for _, ph := range bd.Names() {
					opPhases[ph] += bd.Get(ph).Seconds()
				}
			}
		}
		res.latency = append(res.latency, slowest)
	}
	l := map[string]float64{}
	l["predata.gather_share"] = gather / numStaging / wall
	l["predata.aggregate_share"] = aggregate / numStaging / wall
	l["predata.process_share"] = process / numStaging / wall
	l["predata.dump_wall_p95_ms"] = percentile(res.latency, 95) * 1e3
	l["predata.write_visible_p95_ms"] = percentile(res.visible, 95) * 1e3
	var visibleSum float64
	for _, v := range res.visible {
		visibleSum += v
	}
	l["predata.client_pack_mbps"] = ratio(float64(res.payload)/1e6, visibleSum)

	// The engine's "map" bucket is the wall of the whole Map phase, which
	// mostly waits for chunks to arrive; the operator's own Map time
	// (summed over workers) is the busy part. What is left of ProcessWall
	// after the operator phases is staging.movement_share (see remainders).
	l["staging.map_share"] = ratio(opPhases["map"]/engineWorkers, process)
	for _, ph := range []string{"combine", "shuffle", "reduce", "finalize"} {
		l["staging."+ph+"_share"] = ratio(phases[ph], process)
	}

	l["ops.map_s_per_gb"] = opPhases["map"] / gb
	l["ops.reduce_s_per_gb"] = opPhases["reduce"] / gb
	// Finalize is timed for the engine's whole operator list; every
	// workload here plugs in exactly one operator.
	l["ops.finalize_s_per_gb"] = phases["finalize"] / gb

	l["fabric.pulled_bytes"] = pulled
	l["fabric.pull_modeled_s"] = pullModeled

	if f := pres.Fault; f != nil {
		l["wal.journal_share"] = f.JournalWall.Seconds() / numStaging / wall
		l["wal.bytes_per_payload_byte"] = float64(f.WalBytes) / float64(res.payload)
	}
	if ov := pres.Overload; ov != nil {
		l["flowctl.throttle_waits"] = float64(ov.Throttles)
		l["flowctl.spilled_chunks"] = float64(ov.SpilledChunks)
		l["flowctl.utilization_peak"] = ov.UtilizationPeak
	}
	if rec != nil {
		snap := rec.Snapshot()
		var pullBusy, throttle float64
		for i := range snap.Events {
			e := &snap.Events[i]
			if e.Kind != trace.KindSpan {
				continue
			}
			switch e.Phase {
			case trace.PhasePull:
				pullBusy += float64(e.End-e.Start) / 1e9
			case trace.PhaseThrottle:
				throttle += float64(e.End-e.Start) / 1e9
			}
		}
		l["fabric.pull_busy_s"] = pullBusy
		l["flowctl.throttle_s"] = throttle
		l["trace.dropped_events"] = float64(snap.Dropped)
	}
	return l
}
