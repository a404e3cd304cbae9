package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"predata/internal/bp"
	"predata/internal/dataspaces"
	"predata/internal/evpath"
	"predata/internal/fabric"
	"predata/internal/ffs"
	"predata/internal/flowctl"
	"predata/internal/mpi"
	"predata/internal/predata"
	"predata/internal/staging"
	"predata/internal/wal"
)

// walkInput is what a workload hands the layer walk: its own first-dump
// inputs, replayed through one layer's public functions at a time.
type walkInput struct {
	schema *ffs.Schema
	// records holds every compute rank's dump-0 record (one on
	// serve-mixed); payload is the array-data bytes of one of them.
	records []ffs.Record
	payload int64
	// partial and aggregate are the pipeline's hooks, for the engine row.
	partial   predata.PartialFunc
	aggregate predata.AggregateFunc
	// mkOps builds the workload's operators; nil means no engine row.
	mkOps func(out *bp.Writer) ([]staging.Operator, error)
	// shuffleBytes is one staging rank's all-to-all volume to its peer.
	shuffleBytes int
	// budgetBytes is the admission budget, where the workload has one.
	budgetBytes int64
	// The workload's region shapes for the dataspaces rows.
	domain       dataspaces.Domain
	putLb, putUb []uint64
	putData      []float64
	getLb, getUb []uint64
	// varChunk is the array the bp rows write and read.
	varChunk bp.VarChunk
}

// walkLoops is the number of timed loops the budget is divided among.
const walkLoops = 23

// loopStats is what one timed loop measured.
type loopStats struct {
	ops         int64
	elapsed     time.Duration
	bytesPerOp  float64
	allocsPerOp float64
}

func (s loopStats) perOp() float64 { return ratio(s.elapsed.Seconds(), float64(s.ops)) }

// mbps is the loop's rate when every operation moves bytes.
func (s loopStats) mbps(bytes int64) float64 {
	return ratio(float64(bytes)*float64(s.ops)/1e6, s.elapsed.Seconds())
}

type walker struct {
	in      *walkInput
	per     time.Duration
	scratch string
	sp      *spanRecorder
	root    int
	rows    []measurement
	// enc is rank 0's packed chunk as Client.Write builds it; sealed is
	// what it exposes to the fabric.
	enc, sealed []byte
}

func (w *walker) row(name string, value float64, st loopStats) {
	spec, _ := specOf(name)
	w.rows = append(w.rows, measurement{
		Name: name, Unit: spec.Unit, Value: value,
		BytesPerOp: st.bytesPerOp, AllocsPerOp: st.allocsPerOp,
	})
}

// timed runs fn in doubling batches, one goroutine, until the loop's
// share of the budget is spent, under one span named after the call.
func (w *walker) timed(call string, fn func() error) (loopStats, error) {
	id := w.sp.begin(call, w.root, -1)
	defer w.sp.end(id)
	var st loopStats
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for n := int64(1); st.elapsed < w.per; {
		t0 := time.Now()
		for i := int64(0); i < n; i++ {
			if err := fn(); err != nil {
				return st, fmt.Errorf("%s: %w", call, err)
			}
		}
		el := time.Since(t0)
		st.ops += n
		st.elapsed += el
		if el < w.per/16 {
			n *= 2
		}
	}
	runtime.ReadMemStats(&after)
	st.bytesPerOp = float64(after.TotalAlloc-before.TotalAlloc) / float64(st.ops)
	st.allocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(st.ops)
	return st, nil
}

// collective is timed for message-passing ranks: every rank runs the same
// batches, and rank 0's clock decides (and broadcasts) when to stop.
func collective(c *mpi.Comm, per time.Duration, op func() error) (loopStats, error) {
	var st loopStats
	for n := 1; ; {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := op(); err != nil {
				return st, err
			}
		}
		el := time.Since(t0)
		st.ops += int64(n)
		st.elapsed += el
		verdict, err := mpi.Bcast(c, []bool{st.elapsed >= per, el < per/16}, 0)
		if err != nil {
			return st, err
		}
		if verdict[0] {
			return st, nil
		}
		if verdict[1] {
			n *= 2
		}
	}
}

// packRecord adds the writer rank and timestep the way Client.Write does
// before packing, so the walk encodes and decodes real chunk buffers.
func packRecord(schema *ffs.Schema, rec ffs.Record, rank int, timestep int64) (*ffs.Schema, ffs.Record) {
	packed := &ffs.Schema{Name: schema.Name, Fields: append([]ffs.Field{
		{Name: "_rank", Kind: ffs.KindInt64},
		{Name: "_timestep", Kind: ffs.KindInt64},
	}, schema.Fields...)}
	full := ffs.Record{"_rank": int64(rank), "_timestep": timestep}
	for k, v := range rec {
		full[k] = v
	}
	return packed, full
}

// walkLayers measures each layer on its own with the workload's inputs.
// Every loop is one span; the loop's calls are not recorded one by one
// (there are millions of the cheap ones).
func walkLayers(in *walkInput, budget time.Duration, scratch string, sp *spanRecorder) ([]measurement, error) {
	w := &walker{in: in, per: budget / walkLoops, scratch: scratch, sp: sp}
	w.root = sp.begin("layer-walk", 0, -1)
	defer sp.end(w.root)
	for _, layer := range []func() error{
		w.ffsAndSeal, w.fabric, w.evpath, w.mpi, w.engine, w.bpAndPFS, w.wal, w.flowctl, w.dataspaces,
	} {
		if err := layer(); err != nil {
			return nil, err
		}
	}
	return w.rows, nil
}

func (w *walker) ffsAndSeal() error {
	schema, rec := packRecord(w.in.schema, w.in.records[0], 0, 0)
	enc, err := ffs.Encode(schema, rec)
	if err != nil {
		return err
	}
	sealed := staging.Seal(enc)
	w.enc, w.sealed = enc, sealed
	payload := w.in.payload

	st, err := w.timed("ffs.Encode", func() error { _, err := ffs.Encode(schema, rec); return err })
	if err != nil {
		return err
	}
	w.row("ffs.encode_mbps", st.mbps(payload), st)
	w.row("ffs.encode_alloc_amplification", st.bytesPerOp/float64(payload), st)

	st, err = w.timed("ffs.Decode", func() error { _, _, err := ffs.Decode(enc); return err })
	if err != nil {
		return err
	}
	w.row("ffs.decode_mbps", st.mbps(payload), st)
	w.row("ffs.decode_alloc_amplification", st.bytesPerOp/float64(payload), st)

	st, err = w.timed("staging.Seal", func() error { staging.Seal(enc); return nil })
	if err != nil {
		return err
	}
	w.row("staging.seal_mbps", st.mbps(payload), st)

	st, err = w.timed("staging.Unseal", func() error { _, err := staging.Unseal(sealed); return err })
	if err != nil {
		return err
	}
	w.row("staging.unseal_mbps", st.mbps(payload), st)

	st, err = w.timed("staging.DecodeChunk", func() error {
		chunk, err := staging.DecodeChunk(enc)
		if err != nil {
			return err
		}
		if chunk.Release != nil {
			chunk.Release()
		}
		return nil
	})
	if err != nil {
		return err
	}
	w.row("staging.decode_chunk_mbps", st.mbps(payload), st)
	return nil
}

func (w *walker) fabric() error {
	sealed := w.sealed
	fab, err := fabric.New(fabric.DefaultConfig(4))
	if err != nil {
		return err
	}
	defer fab.Shutdown()
	eps := make([]*fabric.Endpoint, 4)
	for i := range eps {
		if eps[i], err = fab.Endpoint(i); err != nil {
			return err
		}
	}
	pull := func(src, dst int) error {
		_, _, err := eps[dst].Pull(eps[src].Expose(sealed))
		return err
	}
	st, err := w.timed("fabric.Expose+Pull", func() error { return pull(0, 2) })
	if err != nil {
		return err
	}
	w.row("fabric.pull_mbps", st.mbps(w.in.payload), st)

	// Two goroutines pulling from different endpoints: any gap to twice
	// the single-stream rate is the fabric-wide lock.
	const perGoroutine = 8
	st, err = w.timed("fabric.Expose+Pull x2", func() error {
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perGoroutine && errs[g] == nil; i++ {
					errs[g] = pull(g, 2+g)
				}
			}(g)
		}
		wg.Wait()
		return errors.Join(errs...)
	})
	if err != nil {
		return err
	}
	w.row("fabric.pull_contended_mbps", st.mbps(2*perGoroutine*w.in.payload), st)

	st, err = w.timed("fabric.SendCtl+RecvCtl", func() error {
		if err := eps[0].SendCtl(2, 0); err != nil {
			return err
		}
		_, _, err := eps[2].RecvCtl()
		return err
	})
	if err != nil {
		return err
	}
	w.row("fabric.ctl_roundtrip_ns", st.perOp()*1e9, st)
	return nil
}

// evpath pushes small events through the server's graph shape: a
// transform stone feeding a terminal stone, with the decode stone's byte
// bound where the workload runs under an admission budget.
func (w *walker) evpath() (err error) {
	const batch = 256
	mgr := evpath.NewManager()
	defer func() { err = errors.Join(err, mgr.Close()) }()
	var seen atomic.Int64
	tick := make(chan struct{}, 1)
	terminal, err := mgr.NewTerminalStone(func(*evpath.Event) error {
		if seen.Add(1)%batch == 0 {
			tick <- struct{}{}
		}
		return nil
	})
	if err != nil {
		return err
	}
	transform, err := mgr.NewTransformStone(func(e *evpath.Event) (*evpath.Event, error) {
		return &evpath.Event{Attrs: e.Attrs, Data: e.Data}, nil
	})
	if err != nil {
		return err
	}
	if err := transform.LinkTo(terminal); err != nil {
		return err
	}
	if w.in.budgetBytes > 0 {
		if err := transform.SetByteLimit(w.in.budgetBytes, func(*evpath.Event) int64 { return 64 }); err != nil {
			return err
		}
	}
	ev := &evpath.Event{Attrs: map[string]int64{"writer": 0}}
	st, err := w.timed("evpath.Submit", func() error {
		for i := 0; i < batch; i++ {
			if err := transform.Submit(ev); err != nil {
				return err
			}
		}
		<-tick
		return nil
	})
	if err != nil {
		return err
	}
	events := float64(st.ops * batch)
	w.row("evpath.hop_ns", st.elapsed.Seconds()/(2*events)*1e9, st)
	w.row("evpath.events_per_s", events/st.elapsed.Seconds(), st)
	return nil
}

func (w *walker) mpi() error {
	var allgather, alltoall, barrier loopStats
	part := make([]float64, w.in.shuffleBytes/8)
	id := w.sp.begin("mpi collectives", w.root, -1)
	err := mpi.Run(numStaging, func(c *mpi.Comm) error {
		small := []int64{int64(c.Rank())}
		ag, err := collective(c, w.per, func() error { _, err := mpi.Allgather(c, small); return err })
		if err != nil {
			return err
		}
		send := make([][]float64, c.Size())
		for i := range send {
			send[i] = part
		}
		aa, err := collective(c, w.per, func() error { _, err := mpi.Alltoall(c, send); return err })
		if err != nil {
			return err
		}
		ba, err := collective(c, w.per, c.Barrier)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			allgather, alltoall, barrier = ag, aa, ba
		}
		return nil
	})
	w.sp.end(id)
	if err != nil {
		return err
	}
	w.row("mpi.allgather_us", allgather.perOp()*1e6, allgather)
	w.row("mpi.alltoall_mbps", alltoall.mbps(int64(w.in.shuffleBytes)), alltoall)
	w.row("mpi.barrier_us", barrier.perOp()*1e6, barrier)
	return nil
}

// engine drives Engine.ProcessDump over pre-decoded chunks with the
// workload's operators on two message-passing ranks: engine, ops and mpi
// with no fabric, no predata and no BP output.
func (w *walker) engine() error {
	if w.in.mkOps == nil {
		return nil
	}
	var agg map[string]any
	if w.in.aggregate != nil {
		partials := make([]predata.RankPartial, len(w.in.records))
		for r, rec := range w.in.records {
			p, err := w.in.partial(w.in.schema, rec)
			if err != nil {
				return err
			}
			partials[r] = predata.RankPartial{Rank: r, Partial: p}
		}
		agg = w.in.aggregate(partials)
	}
	chunks := make([]*staging.Chunk, len(w.in.records))
	for r, rec := range w.in.records {
		chunks[r] = &staging.Chunk{WriterRank: r, Schema: w.in.schema, Record: rec}
	}
	var st loopStats
	id := w.sp.begin("staging.Engine.ProcessDump", w.root, -1)
	err := mpi.Run(numStaging, func(c *mpi.Comm) error {
		eng := staging.NewEngine(staging.Config{Workers: engineWorkers})
		mine := chunks[c.Rank()*len(chunks)/c.Size() : (c.Rank()+1)*len(chunks)/c.Size()]
		got, err := collective(c, w.per, func() error {
			ops, err := w.in.mkOps(nil)
			if err != nil {
				return err
			}
			stream := make(chan *staging.Chunk, len(mine))
			for _, ch := range mine {
				stream <- ch
			}
			close(stream)
			_, err = eng.ProcessDump(c, stream, ops, agg)
			return err
		})
		if c.Rank() == 0 {
			st = got
		}
		return err
	})
	w.sp.end(id)
	if err != nil {
		return err
	}
	w.row("staging.engine_mbps", st.mbps(w.in.payload*int64(len(chunks))), st)
	return nil
}

func (w *walker) bpAndPFS() error {
	fs, err := newPipelineFS()
	if err != nil {
		return err
	}
	vc := w.in.varChunk
	bytes := int64(len(vc.Data)) * 8
	write := func() error {
		bw, err := bp.CreateWriter(fs, "walk.bp", 8)
		if err != nil {
			return err
		}
		if _, err := bw.WritePG(0, 0, []bp.VarChunk{vc}); err != nil {
			return err
		}
		_, err = bw.Close()
		return err
	}
	st, err := w.timed("bp.Writer.WritePG", write)
	if err != nil {
		return err
	}
	w.row("bp.writepg_mbps", st.mbps(bytes), st)

	st, err = w.timed("bp.Reader.ReadVar", func() error {
		r, err := bp.OpenReader(fs, "walk.bp")
		if err != nil {
			return err
		}
		_, _, _, err = r.ReadVar(vc.Name, 0)
		return err
	})
	if err != nil {
		return err
	}
	w.row("bp.readvar_mbps", st.mbps(bytes), st)

	enc := w.enc
	var modeled time.Duration
	st, err = w.timed("pfs.File.Append", func() error {
		f, err := fs.Create("walk.raw", 8)
		if err != nil {
			return err
		}
		_, modeled, err = f.Append(enc)
		return err
	})
	if err != nil {
		return err
	}
	w.row("pfs.append_mbps", st.mbps(int64(len(enc))), st)
	w.row("pfs.modeled_write_s", modeled.Seconds(), loopStats{})
	return nil
}

// wal times the journal as a staging rank drives it: a dump's chunks
// appended, the dump committed (fsync), a checkpoint every few dumps;
// then recovery of a journal holding one uncommitted dump.
func (w *walker) wal() (err error) {
	const chunksPerDump, checkpointEvery = 4, 8
	enc := w.enc
	dir, err := os.MkdirTemp(w.scratch, "walk-wal-")
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, os.RemoveAll(dir)) }()
	log, err := wal.Open(dir)
	if err != nil {
		return err
	}
	defer log.Close()

	id := w.sp.begin("wal.Log append+commit+checkpoint", w.root, -1)
	var appendT, commitT, checkpointT time.Duration
	var appends, commits, checkpoints int64
	checkpoint := func(next int64) error {
		t0 := time.Now()
		_, err := log.WriteCheckpoint(wal.Checkpoint{NextDump: next})
		checkpointT += time.Since(t0)
		checkpoints++
		return err
	}
	dump := int64(0)
	for ; appendT+commitT+checkpointT < w.per; dump++ {
		t0 := time.Now()
		for c := 0; c < chunksPerDump; c++ {
			if err := log.AppendChunk(c, dump, enc); err != nil {
				return err
			}
		}
		t1 := time.Now()
		if err := log.AppendCommit(dump); err != nil {
			return err
		}
		appendT += t1.Sub(t0)
		commitT += time.Since(t1)
		appends += chunksPerDump
		commits++
		if (dump+1)%checkpointEvery == 0 {
			if err := checkpoint(dump + 1); err != nil {
				return err
			}
		}
	}
	if checkpoints == 0 {
		if err := checkpoint(dump); err != nil {
			return err
		}
	}
	w.sp.end(id)
	w.row("wal.append_mbps", ratio(float64(appends)*float64(len(enc))/1e6, appendT.Seconds()), loopStats{})
	w.row("wal.commit_us", ratio(commitT.Seconds(), float64(commits))*1e6, loopStats{})
	w.row("wal.checkpoint_ms", ratio(checkpointT.Seconds(), float64(checkpoints))*1e3, loopStats{})

	for c := 0; c < chunksPerDump; c++ {
		if err := log.AppendChunk(c, dump, enc); err != nil {
			return err
		}
	}
	if err := log.Close(); err != nil {
		return err
	}
	st, err := w.timed("wal.Recover", func() error { _, err := wal.Recover(dir); return err })
	if err != nil {
		return err
	}
	w.row("wal.recover_mbps", st.mbps(int64(chunksPerDump*len(enc))), st)
	return nil
}

func (w *walker) flowctl() error {
	capacity := w.in.budgetBytes
	if capacity == 0 {
		capacity = 64 << 20
	}
	ctx, cancel := context.WithTimeout(context.Background(), pipelineTimeout)
	defer cancel()
	n := w.in.payload
	budget, err := flowctl.NewBudget(capacity, 0.9, 0.5)
	if err != nil {
		return err
	}
	st, err := w.timed("flowctl.Budget.Acquire+Release", func() error {
		lease, err := budget.Acquire(ctx, n)
		if err != nil {
			return err
		}
		lease.Release()
		return nil
	})
	if err != nil {
		return err
	}
	w.row("flowctl.acquire_release_ns", st.perOp()*1e9, st)

	shared, err := flowctl.NewBudget(capacity, 0.9, 0.5)
	if err != nil {
		return err
	}
	fair, err := flowctl.NewFairShare(shared)
	if err != nil {
		return err
	}
	for id, weight := range serveWeights {
		if err := fair.Register(id, weight); err != nil {
			return err
		}
	}
	st, err = w.timed("flowctl.FairShare.Acquire+release", func() error {
		release, err := fair.Acquire(ctx, 0, n)
		if err != nil {
			return err
		}
		release()
		return nil
	})
	if err != nil {
		return err
	}
	w.row("flowctl.fairshare_acquire_ns", st.perOp()*1e9, st)
	return nil
}

func (w *walker) dataspaces() error {
	const object = "walk"
	in := w.in
	space, err := dataspaces.New(dataspaces.Config{Servers: numStaging, Domain: in.domain})
	if err != nil {
		return err
	}
	putBytes := int64(len(in.putData)) * 8
	id := w.sp.begin("dataspaces.Space.Put+EvictVersion", w.root, -1)
	var putT, evictT time.Duration
	var puts int64
	var mallocs uint64
	var before, after runtime.MemStats
	for version := 1; putT+evictT < w.per; version++ {
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		if err := space.Put(object, version, in.putLb, in.putUb, in.putData); err != nil {
			return err
		}
		t1 := time.Now()
		runtime.ReadMemStats(&after)
		t2 := time.Now()
		space.EvictVersion(object, version)
		putT += t1.Sub(t0)
		evictT += time.Since(t2)
		mallocs += after.Mallocs - before.Mallocs
		puts++
	}
	w.sp.end(id)
	w.row("dataspaces.put_mbps", ratio(float64(puts)*float64(putBytes)/1e6, putT.Seconds()), loopStats{})
	w.row("dataspaces.put_allocs_per_op", float64(mallocs)/float64(puts), loopStats{})
	w.row("dataspaces.evict_us", evictT.Seconds()/float64(puts)*1e6, loopStats{})

	if err := space.Put(object, 0, in.putLb, in.putUb, in.putData); err != nil {
		return err
	}
	cells := int64(1)
	for d := range in.getLb {
		cells *= int64(in.getUb[d] - in.getLb[d])
	}
	st, err := w.timed("dataspaces.Space.Get", func() error {
		_, err := space.Get(object, 0, in.getLb, in.getUb)
		return err
	})
	if err != nil {
		return err
	}
	w.row("dataspaces.get_mbps", st.mbps(cells*8), st)
	st, err = w.timed("dataspaces.Space.Reduce", func() error {
		_, err := space.Reduce(object, 0, in.getLb, in.getUb, dataspaces.ReduceSum)
		return err
	})
	if err != nil {
		return err
	}
	w.row("dataspaces.reduce_mcells_s", ratio(float64(cells)*float64(st.ops)/1e6, st.elapsed.Seconds()), st)
	return nil
}
