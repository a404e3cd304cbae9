package predata

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"predata/internal/elastic"
	"predata/internal/fabric"
	"predata/internal/faults"
	"predata/internal/flowctl"
	"predata/internal/mpi"
	"predata/internal/staging"
	"predata/internal/trace"
	"predata/internal/wal"
)

// PipelineConfig describes a complete compute + staging job sharing one
// fabric, the configuration the paper's experiments run: N compute ranks
// producing dumps, M staging ranks consuming them.
type PipelineConfig struct {
	NumCompute int
	NumStaging int
	// Dumps is the number of I/O dumps each compute rank performs; the
	// staging area serves the same count. Timesteps are 0..Dumps-1.
	Dumps int
	// Engine configures the staging engine.
	Engine staging.Config
	// Transform, PartialCalculate, Aggregate plug the usual hooks.
	Transform        TransformFunc
	PartialCalculate PartialFunc
	Aggregate        AggregateFunc
	// PullConcurrency bounds in-flight pulls per staging rank.
	PullConcurrency int
	// Timeout aborts the pipeline if it has not completed in time by
	// shutting the fabric down; ranks blocked on fabric operations fail
	// fast and the abort cascades through the message-passing layer.
	// Zero disables the watchdog. (A rank blocked purely in application
	// code that never touches the fabric cannot be interrupted.)
	Timeout time.Duration
	// FaultPlan, when non-nil, injects the plan's faults into the run:
	// transients and degrade windows act inside the fabric, crashes kill
	// staging ranks at dump boundaries and the survivors absorb their
	// routes. Crashes may only target staging endpoints
	// [NumCompute, NumCompute+NumStaging) and must leave at least one
	// staging rank alive.
	FaultPlan *faults.Plan
	// Retry tunes transient-fault backoff and the per-dump staging
	// deadline; zero fields take DefaultRetryPolicy values.
	Retry RetryPolicy
	// BufferMB, when positive, enables the flow controller on every
	// staging rank with a budget of BufferMB megabytes — the ADIOS
	// <buffer size-MB> hint made binding. Zero disables admission control.
	BufferMB int
	// Overload tunes the degradation ladder (patience, spill directory
	// and escalation limits). Its BudgetBytes field is ignored —
	// the budget always derives from BufferMB.
	Overload flowctl.Policy
	// WALDir, when non-empty, turns on durable staging: every staging
	// rank keeps a write-ahead journal under WALDir/rank-N, recording
	// fetch requests on arrival and sealing each completed dump with a
	// commit record; writers keep each chunk's region until its dump's
	// commit is durable. A journal left behind by a previous incarnation
	// is recovered on start. Required for plans with restart or crashall
	// faults — bounced ranks rebuild from it.
	WALDir string
	// CheckpointEvery, when positive, compacts each journal every
	// CheckpointEvery dumps down to a dump-boundary checkpoint record and
	// the records it does not cover, bounding journal growth. Ignored
	// without WALDir.
	CheckpointEvery int
	// Tracer, when non-nil, flight-records the run: fabric operations,
	// staging engine stages, collectives, flow-control decisions and
	// recovery events all land in its ring buffers, ready for export or
	// trace.Verify. A nil Tracer costs nothing on any hot path.
	Tracer *trace.Recorder
}

// FaultReport aggregates fault-injection and recovery activity across
// one pipeline run. All counters are totals over all ranks and dumps.
type FaultReport struct {
	// InjectedTransients and DownRefusals come from the fabric-level
	// injector: faults fired and operations refused against dead peers.
	InjectedTransients int64
	DownRefusals       int64
	// Retries counts fabric operations retried (client sends, staging
	// receives and pulls).
	Retries int64
	// ReroutedDumps counts client writes rehashed onto a surviving
	// staging rank.
	ReroutedDumps int64
	// Redistributed counts requests served by a non-primary staging rank.
	Redistributed int64
	// Drops counts chunks lost to crashed endpoints.
	Drops int64
	// DegradedDumps counts per-rank dump results marked Degraded.
	DegradedDumps int64
	// Corruptions counts payload corruptions the injector fired (wire or
	// source-side). CorruptPulls counts deliveries whose CRC verification
	// failed on the staging side — each is transparently re-pulled — and
	// CorruptDrops counts chunks abandoned after the attempt budget
	// because the source copy itself is damaged.
	Corruptions  int64
	CorruptPulls int64
	CorruptDrops int64
	// Duplicates counts control messages the injector duplicated;
	// DupDrops counts the copies receivers suppressed by (src, seq).
	Duplicates int64
	DupDrops   int64
	// Unreachables counts operations refused because a partition severed
	// the link — distinct from DownRefusals: the peer is alive.
	Unreachables int64
	// FencedDumps counts per-rank dumps sat out without a staging
	// quorum; Heals counts fenced ranks rejoining once their partition
	// window closed.
	FencedDumps int64
	Heals       int64
	// CrashedStaging lists the staging indices the plan crashed.
	CrashedStaging []int
	// RecoveryWall is the total membership-reconfiguration time.
	RecoveryWall time.Duration
	// Restarts counts journal-backed rank revivals: each restart-window
	// rejoin and each rank's rebuild inside a crashall drill.
	Restarts int64
	// WalRecords/WalBytes total the records and framed bytes appended to
	// the write-ahead journals; JournalWall is the cumulative wall time
	// inside journal appends, syncs and checkpoints — the durability
	// overhead the restart experiment measures.
	WalRecords  int64
	WalBytes    int64
	JournalWall time.Duration
	// WalReplayed counts chunks re-pulled after a crashall recovery,
	// named by journaled requests; Checkpoints counts journal
	// compactions across all ranks.
	WalReplayed int64
	Checkpoints int64
}

// ComputeFunc runs the application on one compute rank. comm spans only
// the compute ranks; client performs PreDatA writes.
type ComputeFunc func(comm *mpi.Comm, client *Client) error

// OperatorFactory returns a fresh operator list for one dump. It is called
// once per dump per staging rank, so operators may carry per-dump state.
type OperatorFactory func(dump int) []staging.Operator

// PipelineResult collects the outcome of a pipeline run.
type PipelineResult struct {
	// StagingResults[rank][dump] is each staging rank's per-dump result.
	StagingResults [][]*staging.Result
	// StagingStats[rank][dump] mirrors StagingResults with cost stats.
	StagingStats [][]*DumpStats
	// ClientVisible[rank] is each compute rank's accumulated visible I/O
	// time over all dumps.
	ClientVisible []float64
	// Fault reports injection and recovery activity. It is nil only when
	// there was nothing to report: no fault plan and no recovery action
	// (a plan-free journaled run still reports its WAL records).
	Fault *FaultReport
	// Overload folds the flow controllers' per-dump stats over every
	// staging rank and dump — the overload analogue of Fault — with
	// BudgetBytes each rank's accountant capacity; nil without a
	// BufferMB budget.
	Overload *flowctl.OverloadSum
}

// RunPipeline executes computeFn on NumCompute ranks and the staging
// servers on NumStaging ranks, all within one message-passing world wired
// to one fabric: ranks [0, NumCompute) are compute, the rest staging.
// Staging membership follows the fault plan alone.
func RunPipeline(cfg PipelineConfig, computeFn ComputeFunc, opsFor OperatorFactory) (*PipelineResult, error) {
	return runStaged(cfg, nil, computeFn, opsFor)
}

// stagedRun is the state every rank of one run shares.
type stagedRun struct {
	cfg    PipelineConfig
	fab    *fabric.Fabric
	member *Membership
	el     *elasticRun // nil: the fault plan alone decides membership
	res    *PipelineResult

	mu     sync.Mutex // guards report
	report FaultReport
}

// runStaged is the one staged runtime behind RunPipeline and RunElastic:
// one world, one fabric, one membership value shared by every client,
// server and staging loop. The two entry points differ only in what the
// membership value consults — el adds the autoscaler's announced count
// to the fault plan — and in the elastic-only boundary work el performs.
func runStaged(cfg PipelineConfig, el *elasticRun, computeFn ComputeFunc, opsFor OperatorFactory) (*PipelineResult, error) {
	inj, err := validate(cfg, el)
	if err != nil {
		return nil, err
	}
	total := cfg.NumCompute + cfg.NumStaging
	fcfg := fabric.DefaultConfig(total)
	fcfg.Faults = inj
	fcfg.Tracer = cfg.Tracer
	fab, err := fabric.New(fcfg)
	if err != nil {
		return nil, err
	}
	defer fab.Shutdown()
	var timedOut atomic.Bool
	if cfg.Timeout > 0 {
		watchdog := time.AfterFunc(cfg.Timeout, func() {
			timedOut.Store(true)
			fab.Shutdown()
		})
		defer watchdog.Stop()
	}

	run := &stagedRun{
		cfg: cfg, fab: fab, el: el,
		member: newMembership(inj, cfg.NumCompute, cfg.NumStaging, cfg.NumCompute),
		res: &PipelineResult{
			StagingResults: make([][]*staging.Result, cfg.NumStaging),
			StagingStats:   make([][]*DumpStats, cfg.NumStaging),
			ClientVisible:  make([]float64, cfg.NumCompute),
		},
	}
	if el != nil {
		run.member.sched = el.sched
		run.member.deadline = cfg.Retry.withDefaults().DumpDeadline
	}

	err = mpi.Run(total, func(world *mpi.Comm) (rankErr error) {
		// A failed rank must not leave peers blocked: fail the writers
		// waiting on future membership announcements, and shut the fabric
		// down so pending RecvCtl/Pull calls fail fast (the
		// message-passing side aborts via the world's own error handling).
		defer func() {
			if rankErr != nil {
				run.member.abort(fmt.Errorf("predata: rank %d failed: %w", world.Rank(), rankErr))
				fab.Shutdown()
			}
		}()
		world.SetTracer(cfg.Tracer)
		isCompute := world.Rank() < cfg.NumCompute
		color := 0
		if !isCompute {
			color = 1
		}
		comm, err := world.Split(color, world.Rank())
		if err != nil {
			return err
		}
		ep, err := fab.Endpoint(world.Rank())
		if err != nil {
			return err
		}
		if isCompute {
			return run.compute(comm, ep, computeFn)
		}
		return run.stage(world.Rank(), comm, ep, opsFor)
	})
	if err != nil {
		if timedOut.Load() {
			err = errors.Join(fmt.Errorf("predata: pipeline timed out after %v", cfg.Timeout), err)
		}
		return nil, errors.Join(errors.New("predata: pipeline failed"), err)
	}
	finishReports(&cfg, inj, &run.report, run.res)
	return run.res, nil
}

// compute runs the application on one compute rank. Compute ranks leave
// the job when it returns; every later collective runs on staging-side
// communicators.
func (run *stagedRun) compute(comm *mpi.Comm, ep *fabric.Endpoint, computeFn ComputeFunc) error {
	cfg := run.cfg
	client, err := NewClient(ClientConfig{
		WriterRank:       comm.Rank(),
		NumCompute:       cfg.NumCompute,
		NumStaging:       cfg.NumStaging,
		Endpoint:         ep,
		StagingBase:      cfg.NumCompute,
		Transform:        cfg.Transform,
		PartialCalculate: cfg.PartialCalculate,
		Membership:       run.member,
		Retry:            cfg.Retry,
		Tracer:           cfg.Tracer,
	})
	if err != nil {
		return err
	}
	if err := computeFn(comm, client); err != nil {
		return fmt.Errorf("compute rank %d: %w", comm.Rank(), err)
	}
	run.res.ClientVisible[comm.Rank()] = client.VisibleTime.Seconds()
	run.mu.Lock()
	run.report.Retries += client.Retries
	run.report.ReroutedDumps += client.Rerouted
	run.mu.Unlock()
	return nil
}

// stagingRank is one staging rank's runtime across the run's dumps.
type stagingRank struct {
	*stagedRun
	rank int // world rank, which is also the fabric endpoint id
	idx  int // staging identity; stable across every membership change
	ep   *fabric.Endpoint
	flow *flowctl.Controller
	// pool spans every live staging rank, serving or not — a rank that
	// sits dumps out still answers the pool's splits, so it rejoins the
	// moment its window closes. active is the communicator the current
	// epoch's serving set reduces on: pool itself while every live rank
	// serves, else the serving side of a split of it.
	pool, active *mpi.Comm
	server       *Server
	// journal is the open write-ahead log of the current incarnation, nil
	// without WALDir and while the rank is down for a restart window.
	journal *wal.Log
	walDir  string
	scaler  *elastic.Autoscaler // nil unless the run is elastic
	view    epochView           // membership of the dump last entered
	state   rankState
	epoch   int64
}

// stage runs one staging rank: per-rank setup, then the dump loop.
func (run *stagedRun) stage(rank int, comm *mpi.Comm, ep *fabric.Endpoint, opsFor OperatorFactory) (err error) {
	cfg := run.cfg
	r := &stagingRank{
		stagedRun: run, rank: rank, idx: comm.Rank(), ep: ep,
		pool: comm, active: comm,
		view:  run.member.everyone,
		epoch: -1,
	}
	if run.el != nil {
		// An elastic pool starts with nobody serving, so dump 0's active
		// set is installed — and stamped — as scale epoch 0.
		r.view.active, r.state = nil, idle
		if r.scaler, err = elastic.New(run.el.cfg.Policy, run.el.start); err != nil {
			return err
		}
	}
	if cfg.BufferMB > 0 {
		pol := cfg.Overload
		pol.BudgetBytes = int64(cfg.BufferMB) << 20
		if r.flow, err = flowctl.NewController(pol); err != nil {
			return err
		}
		r.flow.SetTracer(cfg.Tracer, rank)
	}
	if cfg.WALDir != "" {
		r.walDir = filepath.Join(cfg.WALDir, fmt.Sprintf("rank-%d", rank))
	}
	// The rank owns whichever journal handle it holds at exit, including
	// ones the restart paths re-open, so the shutdown seal is registered
	// before any of them opens.
	defer func() {
		if serr := r.seal(); err == nil {
			err = serr
		}
	}()
	// Recovery-on-start: a journal left behind by a previous run's
	// incarnation is replayed before the first dump is served.
	if _, err := r.incarnate(); err != nil {
		return err
	}

	for dump := 0; dump < cfg.Dumps; dump++ {
		ts := int64(dump)
		// Membership is dump-aligned and derived from shared state, so
		// every rank diffs the same two views and reaches the same
		// boundary decision without a membership protocol.
		next, err := run.member.at(ts)
		if err != nil {
			return fmt.Errorf("staging rank %d: %w", r.idx, err)
		}
		lost := len(r.view.live) - len(next.live)
		if boundary, leaving := diffMembership(r.view, next, r.idx); boundary {
			if err := r.enterEpoch(ts, next, leaving); err != nil {
				return fmt.Errorf("staging rank %d entering dump %d: %w", r.idx, dump, err)
			}
			if leaving {
				//predata:vet-ignore collectivecheck dump-aligned crash: this rank split out with color<0, so survivors' collectives use communicators that exclude it
				break
			}
		}
		// Stamped after the boundary: a leaving rank's last collective
		// belongs to the dump it last served.
		r.pool.SetTraceDump(ts)

		var res *staging.Result
		var st *DumpStats
		switch {
		case r.state != serving:
			// Sat out: placeholder rows keep dump indices aligned across
			// ranks; the rank's writers were routed to the serving set.
			res, st = placeholder(r.state)
		case r.journal != nil && run.member.inj.CrashAllAt(ts):
			res, st, err = r.crashAll(ts, opsFor(dump))
		default:
			// Membership-derived branch: the dump's collectives run on the
			// active communicator, which holds exactly the ranks whose
			// shared derivation lands in the serving set; the ranks
			// sitting out above are outside it.
			//predata:vet-ignore collectivecheck membership-derived: every rank of the active communicator takes this case for the dump, the ranks outside it sit out
			res, st, err = r.server.ServeDump(ts, opsFor(dump))
			if err == nil {
				err = r.checkpoint(dump)
			}
		}
		if err != nil {
			return fmt.Errorf("staging rank %d dump %d: %w", r.idx, dump, err)
		}
		// Every dump records exactly one row, served or not, so
		// StagingResults[rank][i] is dump i on every rank.
		run.res.StagingResults[r.idx] = append(run.res.StagingResults[r.idx], res)
		run.res.StagingStats[r.idx] = append(run.res.StagingStats[r.idx], st)
		if run.el != nil {
			if err := run.el.observe(r, ts, st.Overload, lost); err != nil {
				return fmt.Errorf("staging rank %d dump %d: %w", r.idx, dump, err)
			}
		}
	}
	return nil
}

// enterEpoch carries this rank across a membership epoch boundary into
// dump ts. Whatever moved — a crash, a partition window opening or
// closing, a restart bounce, an autoscaler resize, or several at once —
// the sequence is the same: crashed ranks split out of the pool (leaving
// says whether this rank is one), the epoch advances once, ranks that stop
// serving stand down, the serving communicator is re-derived, ranks that
// start serving stand up, and every serving rank installs the new
// communicator.
func (r *stagingRank) enterEpoch(ts int64, next epochView, leaving bool) (err error) {
	tr := r.cfg.Tracer
	recStart := time.Now()
	sp := tr.Begin(trace.PhaseRecovery, r.rank, -1, ts, -1)
	// The drain span stays zero — its End a no-op — unless this rank is
	// being retired by the autoscaler.
	var drain trace.Span
	entered := int64(0)
	defer func() {
		drain.End(entered)
		sp.End(entered)
	}()
	if !slices.Equal(next.live, r.view.live) {
		// Pool shrink: the dying rank splits out (color < 0 —
		// MPI_UNDEFINED), drops off the fabric, and exits cleanly with
		// the dumps it served.
		color := 0
		if leaving {
			color = -1
		}
		sub, err := r.pool.Split(color, r.idx)
		if err != nil {
			return fmt.Errorf("pool shrink: %w", err)
		}
		if leaving {
			if err := r.fab.FailEndpoint(r.rank); err != nil {
				return err
			}
			tr.Instant(trace.PhaseCrashExit, r.rank, -1, ts, ts, 0)
			return nil
		}
		r.pool = sub
	}
	r.epoch++
	// From here on the rank acts on its own state change, was → state: a
	// rank can trade one reason for sitting out for another (a fence
	// window closing as a restart window opens) at a boundary some other
	// rank caused, without changing sides of the serving set.
	was, state := r.state, r.member.stateOf(next, r.idx, ts)
	if was == down && state != serving {
		// A parked rank stays off the fabric with its journal sealed until
		// it serves again, whatever else keeps it out in the meantime.
		state = down
	}
	if inj := r.member.inj; len(inj.Plan().Partitions) > 0 {
		// Dump-aligned probe: how many live peers this rank reaches, and
		// whether that is a strict majority.
		quorum := int64(0)
		if state == serving {
			quorum = 1
		}
		tr.Instant(trace.PhaseProbe, r.rank, -1, ts,
			int64(stagingReach(inj, r.cfg.NumCompute, next.live, r.idx, ts)), quorum)
	}
	switch {
	case state == down && was != down:
		if err := r.park(); err != nil {
			return err
		}
	case state == idle && was == serving:
		// Drain-then-Split retirement: the departing rank already flushed
		// its leases and replayed its spill inside its last ServeDump; what
		// remains is leaving the serving communicator while the survivors
		// take over its shards.
		drain = tr.Begin(trace.PhaseDrain, r.rank, -1, ts, r.epoch)
	}
	// A fenced rank just stops serving: alive, but without quorum.
	r.active = r.pool
	if len(next.active) < len(next.live) {
		color := 0
		if state != serving {
			color = 1
		}
		if r.active, err = r.pool.Split(color, r.idx); err != nil {
			return fmt.Errorf("serving split: %w", err)
		}
	}
	if state == serving {
		switch was {
		case down:
			// Revival: rejoin the fabric and rebuild the runtime from the
			// journal the bounced incarnation sealed when it parked.
			if err := r.fab.ReviveEndpoint(r.rank); err != nil {
				return err
			}
			if err := r.restart(ts); err != nil {
				return err
			}
		case fenced:
			// Heal: the membership epoch advanced past the fence window,
			// and every in-window request census excluded this rank, so
			// nothing it serves from here on can double-process a chunk.
			tr.Instant(trace.PhaseHeal, r.rank, -1, ts, r.epoch, 0)
			r.mu.Lock()
			r.report.Heals++
			r.mu.Unlock()
		}
		// A rank joining an elastic grow, like one that served all along,
		// needs nothing more than the communicator installed here.
		if err := r.server.Reconfigure(r.active, r.epoch, time.Since(recStart)); err != nil {
			return fmt.Errorf("reconfigure: %w", err)
		}
	}
	if r.el != nil {
		r.el.installEpoch(r, ts, next)
	}
	r.view, r.state = next, state
	entered = int64(len(next.active))
	return nil
}

// incarnate builds a fresh runtime incarnation of this rank on its
// active communicator out of whatever its journal directory holds: seal
// any handle still open, recover the records the previous incarnation
// left, open the journal for appending, build a server around the handle
// and seed it with the recovered state. It runs at start
// (recovery-on-start), on revival from a restart window and inside the
// crashall drill, and returns the number of records re-admitted.
func (r *stagingRank) incarnate() (int, error) {
	if err := r.seal(); err != nil {
		return 0, err
	}
	cfg := r.cfg
	var recovered *wal.State
	if r.walDir != "" {
		var err error
		if recovered, err = wal.Recover(r.walDir); err != nil {
			return 0, err
		}
		if r.journal, err = wal.Open(r.walDir); err != nil {
			return 0, err
		}
	}
	engine := staging.NewEngine(cfg.Engine)
	engine.SetTracer(cfg.Tracer, r.rank)
	server, err := NewServer(ServerConfig{
		StagingIndex:    r.idx,
		Comm:            r.active,
		Endpoint:        r.ep,
		NumCompute:      cfg.NumCompute,
		NumStaging:      cfg.NumStaging,
		StagingBase:     cfg.NumCompute,
		Aggregate:       cfg.Aggregate,
		Engine:          engine,
		PullConcurrency: cfg.PullConcurrency,
		Membership:      r.member,
		Retry:           cfg.Retry,
		Flow:            r.flow,
		Journal:         r.journal,
		Tracer:          cfg.Tracer,
	})
	if err != nil {
		return 0, err
	}
	r.server = server
	return server.Recover(recovered)
}

// seal banks the open journal handle's append totals into the run
// report and closes it. No-op without one.
func (r *stagingRank) seal() error {
	if r.journal == nil {
		return nil
	}
	r.mu.Lock()
	r.report.WalRecords += r.journal.Records()
	r.report.WalBytes += r.journal.Bytes()
	r.report.JournalWall += r.journal.Wall()
	r.mu.Unlock()
	err := r.journal.Close()
	r.journal = nil
	return err
}

// restart re-incarnates this rank from its journal under the current
// epoch and counts the restart.
func (r *stagingRank) restart(ts int64) error {
	replayed, err := r.incarnate()
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.report.Restarts++
	r.mu.Unlock()
	r.cfg.Tracer.Instant(trace.PhaseRestart, r.rank, -1, ts, r.epoch, int64(replayed))
	return nil
}

// park is the controlled bounce at a restart window's opening boundary:
// drain in-flight requests into the journal (buffered pending ones are
// already there), seal it, and drop off the fabric for the window.
func (r *stagingRank) park() error {
	for _, m := range r.ep.DrainCtl() {
		if req, ok := m.Data.(FetchRequest); ok {
			if err := r.server.journalRequest(req); err != nil {
				return err
			}
		}
	}
	if err := r.seal(); err != nil {
		return err
	}
	return r.fab.FailEndpoint(r.rank)
}

// crashAll is the whole-service crash drill, in three acts.
func (r *stagingRank) crashAll(ts int64, ops []staging.Operator) (*staging.Result, *DumpStats, error) {
	// Act 1: the crash-vulnerable half — gather this dump, journaling
	// its requests, and pull its chunks without acknowledging them, with
	// no collective or engine work (the state a process holds when the
	// crash lands).
	st, err := r.server.ingestDump(ts)
	if err != nil {
		return nil, nil, fmt.Errorf("crashall ingest: %w", err)
	}
	// Act 2: the crash itself. Every incarnation's in-memory state is
	// gone, the pulled bytes with it; only the journal and the writers'
	// regions survive. Rebuild the runtime from recovery
	// under a fresh membership epoch (membership itself is unchanged —
	// everyone died and everyone came back).
	recStart := time.Now()
	r.epoch++
	if err := r.restart(ts); err != nil {
		return nil, nil, fmt.Errorf("crashall rebuild: %w", err)
	}
	if err := r.server.Reconfigure(r.active, r.epoch, time.Since(recStart)); err != nil {
		return nil, nil, fmt.Errorf("crashall reconfigure: %w", err)
	}
	// Act 3: finish the dump from the journal — partials from the
	// recovered requests, chunks re-pulled from the regions they name.
	// The movement costs the crashed incarnation paid during ingest stay
	// on the dump's ledger.
	res, err := r.server.replayDump(ts, ops, st)
	if err != nil {
		return nil, nil, fmt.Errorf("crashall replay: %w", err)
	}
	return res, st, nil
}

// checkpoint compacts the journal when the cadence says so: everything
// below dump+1 is reduced and committed, so the journal shrinks to a
// checkpoint record and the records it does not cover.
func (r *stagingRank) checkpoint(dump int) error {
	every := r.cfg.CheckpointEvery
	if r.journal == nil || every <= 0 || (dump+1)%every != 0 {
		return nil
	}
	next := int64(dump) + 1
	kept, err := r.journal.WriteCheckpoint(wal.Checkpoint{NextDump: next})
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	r.cfg.Tracer.Instant(trace.PhaseCheckpoint, r.rank, -1, int64(dump), next, int64(kept))
	r.mu.Lock()
	r.report.Checkpoints++
	r.mu.Unlock()
	return nil
}

// validate is the one admission check of a staged run: job sizes, the
// elastic policy against the provisioned pool, the fault plan against
// the job's endpoints, and the feature compositions the runtime does
// not support. It returns the plan's injector (nil without a plan).
func validate(cfg PipelineConfig, el *elasticRun) (*faults.Injector, error) {
	if cfg.NumCompute < 1 || cfg.NumStaging < 1 {
		return nil, fmt.Errorf("predata: pipeline sizes compute=%d staging=%d must be >= 1",
			cfg.NumCompute, cfg.NumStaging)
	}
	if cfg.Dumps < 0 {
		return nil, fmt.Errorf("predata: negative dump count %d", cfg.Dumps)
	}
	if el != nil {
		if err := el.cfg.Policy.Validate(); err != nil {
			return nil, err
		}
		if el.cfg.Policy.Max > cfg.NumStaging {
			return nil, fmt.Errorf("predata: elastic Max %d exceeds the provisioned staging pool %d",
				el.cfg.Policy.Max, cfg.NumStaging)
		}
		if cfg.NumStaging > 62 {
			return nil, fmt.Errorf("predata: staging pool %d exceeds 62, the scale-epoch bitmask width",
				cfg.NumStaging)
		}
	}
	if cfg.FaultPlan == nil {
		return nil, nil
	}
	plan := cfg.FaultPlan
	// Rejected compositions. Quorum fencing decides who serves from the
	// plan alone and the autoscaler from telemetry alone; a pool that is
	// both resized and fenced needs one rule for which of the two trims
	// the serving set first, and a bounced or crashed-all rank's journal
	// replay assumes the writers it recovers are still routed to it.
	// (Restart windows overlapping partition windows are rejected by the
	// plan's own validation: a rank cannot fence and restart at once.)
	if el != nil && len(plan.Partitions) > 0 {
		return nil, fmt.Errorf(
			"predata: elastic runs do not support partition faults; quorum fencing requires the fixed-membership pipeline")
	}
	if el != nil && (len(plan.Restarts) > 0 || len(plan.CrashAlls) > 0) {
		return nil, fmt.Errorf(
			"predata: elastic runs do not support restart or crashall faults; journal replay requires the fixed-membership pipeline")
	}
	total := cfg.NumCompute + cfg.NumStaging
	inj, err := faults.NewInjector(*plan)
	if err != nil {
		return nil, err
	}
	crashed := map[int]bool{}
	for _, c := range plan.Crashes {
		if c.Endpoint < cfg.NumCompute || c.Endpoint >= total {
			return nil, fmt.Errorf(
				"predata: crash endpoint %d is not a staging endpoint [%d,%d)",
				c.Endpoint, cfg.NumCompute, total)
		}
		crashed[c.Endpoint] = true
	}
	if len(crashed) >= cfg.NumStaging {
		return nil, fmt.Errorf("predata: plan crashes all %d staging ranks", cfg.NumStaging)
	}
	for _, pt := range plan.Partitions {
		for _, g := range [][]int{pt.GroupA, pt.GroupB} {
			for _, ep := range g {
				if ep >= total {
					return nil, fmt.Errorf(
						"predata: partition endpoint %d is outside the job's %d endpoints", ep, total)
				}
			}
		}
	}
	if (len(plan.Restarts) > 0 || len(plan.CrashAlls) > 0) && cfg.WALDir == "" {
		return nil, fmt.Errorf(
			"predata: plan has restart/crashall faults but no WALDir — bounced ranks need a journal to rebuild from")
	}
	windows := make([]faults.Window, 0, len(plan.Restarts)+len(plan.Partitions))
	for _, r := range plan.Restarts {
		if r.Endpoint < cfg.NumCompute || r.Endpoint >= total {
			return nil, fmt.Errorf(
				"predata: restart endpoint %d is not a staging endpoint [%d,%d)",
				r.Endpoint, cfg.NumCompute, total)
		}
		windows = append(windows, faults.Window{From: r.AtDump, To: r.AtDump + r.Downtime - 1})
	}
	for _, pt := range plan.Partitions {
		windows = append(windows, pt.Window)
	}
	// Every dump a restart or partition window covers must keep at least
	// one rank serving, or the writers routed around the bounce or the
	// cut have nowhere to go. Dumps past the run's last are never served.
	for _, w := range windows {
		to := cfg.Dumps - 1
		if w.To >= 0 {
			to = min(to, w.To)
		}
		for d := w.From; d <= to; d++ {
			live := liveStagingAt(inj, cfg.NumCompute, cfg.NumStaging, int64(d))
			if len(activeStagingAt(inj, cfg.NumCompute, live, int64(d))) == 0 {
				return nil, fmt.Errorf(
					"predata: plan leaves no active staging rank at dump %d (every rank crashed, fenced, or restarting)", d)
			}
		}
	}
	return inj, nil
}

// finishReports folds injector and flow-control activity accumulated in
// the per-rank dump stats into the result's summary reports.
func finishReports(cfg *PipelineConfig, inj *faults.Injector, report *FaultReport, res *PipelineResult) {
	if inj != nil {
		ist := inj.Stats()
		report.InjectedTransients = ist.Transients.Load()
		report.DownRefusals = ist.DownRefusals.Load()
		report.Corruptions = ist.Corruptions.Load()
		report.Duplicates = ist.Duplicates.Load()
		report.DupDrops = ist.DupDrops.Load()
		report.Unreachables = ist.Unreachables.Load()
		seen := map[int]bool{}
		for _, c := range cfg.FaultPlan.Crashes {
			if !seen[c.Endpoint] {
				seen[c.Endpoint] = true
				report.CrashedStaging = append(report.CrashedStaging, c.Endpoint-cfg.NumCompute)
			}
		}
		sort.Ints(report.CrashedStaging)
	}
	for _, rankStats := range res.StagingStats {
		for _, st := range rankStats {
			report.Retries += int64(st.Retries)
			report.Redistributed += int64(st.Redistributed)
			report.Drops += int64(st.Drops)
			report.CorruptPulls += int64(st.CorruptPulls)
			report.CorruptDrops += int64(st.CorruptDrops)
			if st.Fenced {
				report.FencedDumps++
			}
			if st.Degraded {
				report.DegradedDumps++
			}
			report.WalReplayed += int64(st.WalReplayed)
			report.RecoveryWall += st.RecoveryWall
		}
	}
	// The report surfaces whenever there is anything to report: always
	// under an injector, but also on plan-free runs where the recovery
	// layer still acted — e.g. a journaled run's WAL records.
	if inj != nil || report.Retries != 0 ||
		report.Drops != 0 || report.Redistributed != 0 || report.DegradedDumps != 0 ||
		report.WalRecords != 0 {
		res.Fault = report
	}
	if cfg.BufferMB > 0 {
		ov := &flowctl.OverloadSum{}
		ov.BudgetBytes = int64(cfg.BufferMB) << 20
		for _, rankStats := range res.StagingStats {
			for _, st := range rankStats {
				ov.Add(st.Overload)
			}
		}
		res.Overload = ov
	}
}
