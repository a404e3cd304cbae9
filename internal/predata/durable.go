package predata

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"time"

	"predata/internal/staging"
	"predata/internal/trace"
	"predata/internal/wal"
)

// This file is the staging runtime's durability layer: every fetch
// request is journaled on arrival (gatherRequests), a commit record
// seals each completed dump (commitDump), and a crashed incarnation's
// successor rebuilds from the journal (Recover) and finishes the
// interrupted dump by re-pulling it (ingestDump + replayDump, the two
// halves of the crashall drill).
//
// Chunks are journaled by reference. A request names its chunk by
// region handle and seal checksum, and with a journal the writer keeps
// that region until the dump's commit record is durable: reduceDump acks
// every region it pulled only after commitDump's fsync returns. So every
// uncommitted chunk has a live copy in its writer's exposed region, and
// the journal holds requests and commit markers — a few KB per dump.
//
// Invariant: a request is journaled exactly once, at first arrival.
// Requests re-seeded from recovery are *not* re-journaled — their
// records still live in the journal tail — so recovery never
// double-seeds pending and a re-pulled dump never double-reduces.

// encodeRequest gob-encodes a fetch request for the journal. Partial
// payloads ride an any-typed field: concrete partial types must be
// gob-registered by their defining package or encoding fails here.
func encodeRequest(req FetchRequest) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&req); err != nil {
		return nil, fmt.Errorf("predata: encoding fetch request from rank %d: %w", req.WriterRank, err)
	}
	return buf.Bytes(), nil
}

func decodeRequest(blob []byte) (FetchRequest, error) {
	var req FetchRequest
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&req); err != nil {
		return FetchRequest{}, fmt.Errorf("predata: decoding journaled fetch request: %w", err)
	}
	return req, nil
}

// journalRequest appends one just-arrived fetch request to the journal
// and stamps the append. The PhaseJournal Arg is the checksum the
// request names its chunk by, which trace.Verify matches against the
// PhaseWalReplay of a re-pull after a restart. No-op without a journal.
func (s *Server) journalRequest(req FetchRequest) error {
	if s.cfg.Journal == nil {
		return nil
	}
	blob, err := encodeRequest(req)
	if err != nil {
		return err
	}
	if err := s.cfg.Journal.AppendRequest(req.WriterRank, req.Timestep, blob); err != nil {
		return fmt.Errorf("predata: journaling request from rank %d: %w", req.WriterRank, err)
	}
	s.cfg.Tracer.Instant(trace.PhaseJournal, s.cfg.Endpoint.ID(), -1,
		req.Timestep, int64(req.WriterRank), int64(req.Sum))
	return nil
}

// commitDump seals a completed dump with a durable commit record; on
// recovery every journaled record of the dump is dropped as already
// retired. No-op without a journal.
func (s *Server) commitDump(timestep int64) error {
	if s.cfg.Journal == nil {
		return nil
	}
	if err := s.cfg.Journal.AppendCommit(timestep); err != nil {
		return fmt.Errorf("predata: committing dump %d to the journal: %w", timestep, err)
	}
	s.cfg.Tracer.Instant(trace.PhaseWalCommit, s.cfg.Endpoint.ID(), -1, timestep, 0, 0)
	return nil
}

// gatherRequests runs the request gather for one dump (Stage 2a):
// consume requests buffered for this timestep, then receive — journaling
// each arrival — until every served writer has delivered, stashing
// early arrivals for their own dumps. When membership can change the
// gather is deadline-bound: the staging area is collective, so one
// wedged gather wedges every rank.
func (s *Server) gatherRequests(timestep int64, stats *DumpStats) (reqs []FetchRequest, err error) {
	start := time.Now()
	sp := s.cfg.Tracer.Begin(trace.PhaseGather, s.cfg.Endpoint.ID(), -1, timestep, -1)
	defer func() {
		sp.End(int64(len(reqs)))
		stats.GatherWall = time.Since(start)
	}()
	served, err := s.cfg.Membership.servedBy(s.cfg.StagingIndex, timestep)
	if err != nil {
		return nil, err
	}
	var deadline time.Time
	if s.cfg.Membership.bounded() {
		deadline = start.Add(s.retry.DumpDeadline)
	}
	reqs = s.pending[timestep]
	delete(s.pending, timestep)
	got := make(map[int]bool, len(served))
	for _, r := range reqs {
		got[r.WriterRank] = true
	}
	servedSet := make(map[int]bool, len(served))
	for _, w := range served {
		servedSet[w] = true
	}
	for len(reqs) < len(served) {
		req, err := s.recvRequest(deadline, stats)
		if err != nil {
			return nil, err
		}
		if err := s.journalRequest(req); err != nil {
			return nil, err
		}
		if req.Timestep == timestep {
			reqs = append(reqs, req)
			got[req.WriterRank] = true
			continue
		}
		s.pending[req.Timestep] = append(s.pending[req.Timestep], req)
		// Each client sends its dump requests in timestep order and the
		// fabric preserves per-sender ordering, so a writer this dump
		// still awaits that has already delivered a *later* timestep here
		// will never deliver this one — its request went to another rank
		// under a diverged census. Fail fast instead of deadlocking the
		// collective staging area. (A writer served elsewhere this dump
		// may freely race ahead; only the awaited ones are checked.)
		if req.Timestep > timestep && servedSet[req.WriterRank] && !got[req.WriterRank] {
			return nil, fmt.Errorf(
				"predata: ServeDump(%d) still awaits writer %d's request, but it already sent timestep %d",
				timestep, req.WriterRank, req.Timestep)
		}
	}
	stats.Requests = len(reqs)
	for _, r := range reqs {
		if DefaultRoute(r.WriterRank, s.cfg.NumCompute, s.cfg.NumStaging) != s.cfg.StagingIndex {
			stats.Redistributed++
		}
	}
	return reqs, nil
}

// Recover seeds a freshly built server from a crashed incarnation's
// recovered journal state: uncommitted requests re-enter the pending
// buffer, deduped per dump and writer — the journal may be re-scanned
// across repeated bounces. It returns the number of requests re-admitted
// and must be called before the first dump is served.
func (s *Server) Recover(st *wal.State) (int, error) {
	if st == nil {
		return 0, nil
	}
	replayed := 0
	type dw struct {
		ts     int64
		writer int
	}
	seen := make(map[dw]bool)
	for _, rec := range st.Requests {
		req, err := decodeRequest(rec.Payload)
		if err != nil {
			return replayed, err
		}
		k := dw{req.Timestep, req.WriterRank}
		if seen[k] {
			continue
		}
		seen[k] = true
		s.pending[req.Timestep] = append(s.pending[req.Timestep], req)
		replayed++
	}
	return replayed, nil
}

// ingestDump is the crash-vulnerable half of the whole-service crash
// drill: gather this dump's fetch requests, journaling them, and pull
// every chunk with NO collective and NO engine work — exactly the state
// a process has accumulated when a mid-dump crash takes the whole
// staging area down. The pulls retain their regions without an Ack, and
// the crash discards what they delivered. Which chunks drop, arrive
// corrupt or make it is decided — and counted — once, by replayDump's
// re-pull; here only the movement is charged. Requests stay in pending
// (the journal holds them too) so the rebuilt incarnation's replayDump
// finds them. The returned ledger is the dump's: replayDump continues
// it.
func (s *Server) ingestDump(timestep int64) (*DumpStats, error) {
	if s.cfg.Journal == nil {
		return nil, fmt.Errorf("predata: ingestDump(%d) needs a journal — ingest without durability would lose the dump", timestep)
	}
	stats := &DumpStats{}
	s.beginDump(timestep, stats)
	reqs, err := s.gatherRequests(timestep, stats)
	if err != nil {
		return nil, err
	}
	// The gather consumed this dump's pending slot; put the requests
	// back so the post-crash replay can re-derive them without touching
	// the fabric. (Recovery normally reloads them from the journal; the
	// in-memory copy only matters if a test replays without a rebuild.)
	s.pending[timestep] = reqs

	ctx, cancel := context.WithTimeout(context.Background(), s.retry.DumpDeadline)
	defer cancel()
	for _, req := range reqs {
		frame, modeled, err := s.cfg.Endpoint.PullRetain(ctx, req.Handle)
		if err != nil {
			continue // the re-pull meets the same fault and records it
		}
		stats.addPull(len(frame)-staging.SealOverhead, modeled)
	}
	if err := s.cfg.Journal.Sync(); err != nil {
		return nil, fmt.Errorf("predata: syncing ingest journal for dump %d: %w", timestep, err)
	}
	return stats, nil
}

// replayDump finishes a dump after a crashall: the recovered requests
// supply the piggybacked partials for the (collective) exchange — they
// were journaled inside their requests, so the global aggregate after
// the crash is byte-for-byte the one the crashed service would have
// built — and name the chunks, which are re-pulled from the regions
// their writers still hold, exactly as a live dump pulls them. stats is
// the ledger the crashed incarnation's ingestDump opened. All staging
// ranks must call replayDump collectively with the same timestep after
// reconfiguring onto the same epoch.
func (s *Server) replayDump(timestep int64, ops []staging.Operator, stats *DumpStats) (*staging.Result, error) {
	s.beginDump(timestep, stats)
	reqs := s.pending[timestep]
	delete(s.pending, timestep)
	return s.reduceDump(timestep, ops, reqs, &dumpRun{stats: stats, replay: true})
}
