package predata

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"sort"
	"time"

	"predata/internal/evpath"
	"predata/internal/staging"
	"predata/internal/trace"
	"predata/internal/wal"
)

// This file is the staging runtime's durability layer: every fetch
// request and pulled chunk is journaled on arrival (gatherRequests /
// journalChunk), a commit record seals each completed dump
// (commitDump), and a crashed incarnation's successor rebuilds from the
// journal (Recover) and finishes the interrupted dump out of it
// (ingestDump + replayDump, the two halves of the crashall drill).
//
// Invariant: a request or chunk is journaled exactly once, at first
// arrival. Requests re-seeded from recovery are *not* re-journaled —
// their records still live in the journal tail — so recovery never
// double-seeds pending and a replayed dump never double-reduces.

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
// and stamps the append. No-op without a journal.
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
	s.traceCRC(trace.PhaseJournal, req.Timestep, req.WriterRank, blob)
	return nil
}

// traceCRC records a journal-fidelity instant whose Arg is the payload's
// CRC — trace.Verify matches a PhaseWalReplay against the crashed
// incarnation's PhaseJournal by it. The checksum is a full pass over the
// payload, so it is computed only when a recorder is there to read it.
func (s *Server) traceCRC(phase trace.Phase, timestep int64, writer int, payload []byte) {
	if !s.cfg.Tracer.Enabled() {
		return
	}
	s.cfg.Tracer.Instant(phase, s.cfg.Endpoint.ID(), -1,
		timestep, int64(writer), int64(crc32.ChecksumIEEE(payload)))
}

// journalChunk appends one pulled chunk's packed bytes. The PhaseJournal
// Arg carries the payload CRC, which trace.Verify matches against the
// corresponding PhaseWalReplay after a restart. No-op without a journal.
func (s *Server) journalChunk(req FetchRequest, buf []byte) error {
	if s.cfg.Journal == nil {
		return nil
	}
	if err := s.cfg.Journal.AppendChunk(req.WriterRank, req.Timestep, buf); err != nil {
		return fmt.Errorf("predata: journaling chunk from rank %d: %w", req.WriterRank, err)
	}
	s.traceCRC(trace.PhaseJournal, req.Timestep, req.WriterRank, buf)
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
		if s.cfg.Route(r.WriterRank, s.cfg.NumCompute, s.cfg.NumStaging) != s.cfg.StagingIndex {
			stats.Redistributed++
		}
	}
	return reqs, nil
}

// Recover seeds a freshly built server from a crashed incarnation's
// recovered journal state: uncommitted requests re-enter the pending
// buffer (deduped per dump and writer — the journal may be re-scanned
// across repeated bounces) and uncommitted chunk records queue for
// replayDump. It returns the number of records re-admitted and must be
// called before the first dump is served.
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
		if st.CommittedDump(rec.Timestep) {
			continue
		}
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
	for _, rec := range st.Chunks {
		if st.CommittedDump(rec.Timestep) {
			continue
		}
		s.replayable[rec.Timestep] = append(s.replayable[rec.Timestep], rec)
		replayed++
	}
	return replayed, nil
}

// ingestDump is the crash-vulnerable half of the whole-service crash
// drill: gather this dump's fetch requests and pull every chunk,
// journaling both, with NO collective and NO engine work — exactly the
// state a process has accumulated when a mid-dump crash takes the whole
// staging area down. Requests stay in pending (the journal holds them
// too) so the rebuilt incarnation's replayDump finds them. A down or
// persistently corrupt source is recorded as the usual drop; the
// missing chunk simply never reaches the journal. The returned ledger
// is the dump's: replayDump continues it.
func (s *Server) ingestDump(timestep int64) (*DumpStats, error) {
	if s.cfg.Journal == nil {
		return nil, fmt.Errorf("predata: ingestDump(%d) needs a journal — ingest without durability would lose the dump", timestep)
	}
	d := &dumpRun{stats: &DumpStats{}}
	s.beginDump(timestep, d.stats)
	reqs, err := s.gatherRequests(timestep, d.stats)
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
		if _, _, err := s.pullChunk(ctx, req, d); err != nil {
			return nil, err
		}
	}
	if err := s.cfg.Journal.Sync(); err != nil {
		return nil, fmt.Errorf("predata: syncing ingest journal for dump %d: %w", timestep, err)
	}
	return d.stats, nil
}

// replayDump finishes a dump out of the journal: the recovered requests
// supply the piggybacked partials for the (collective) exchange — they
// were journaled inside their requests, so the global aggregate after
// the crash is byte-for-byte the one the crashed service would have
// built — and the recovered chunk records feed a fresh stone graph in
// ChunkOrder. No fabric pull happens: the sources released their
// regions to the crashed incarnation long ago. stats is the ledger the
// crashed incarnation's ingestDump opened. All staging ranks must call
// replayDump collectively with the same timestep after reconfiguring
// onto the same epoch.
func (s *Server) replayDump(timestep int64, ops []staging.Operator, stats *DumpStats) (*staging.Result, error) {
	s.beginDump(timestep, stats)
	reqs := s.pending[timestep]
	delete(s.pending, timestep)
	recs := s.replayable[timestep]
	delete(s.replayable, timestep)
	stats.WalReplayed = len(recs)
	return s.reduceDump(timestep, ops, reqs, stats, nil, func(ctx context.Context, d *dumpRun, reqs []FetchRequest, decode *evpath.Stone) {
		// Issue the records exactly as the live feed would have issued
		// their pulls, keyed through their journaled requests.
		pos := make(map[int]int, len(reqs))
		for i, r := range reqs {
			pos[r.WriterRank] = i
		}
		sort.SliceStable(recs, func(i, j int) bool { return pos[recs[i].Writer] < pos[recs[j].Writer] })
		for _, rec := range recs {
			// The payload CRC lets trace.Verify match the replay against
			// the crashed incarnation's PhaseJournal append.
			s.traceCRC(trace.PhaseWalReplay, rec.Timestep, rec.Writer, rec.Payload)
			err := decode.SubmitContext(ctx, &evpath.Event{
				Attrs: map[string]int64{"writer": int64(rec.Writer), "timestep": rec.Timestep},
				Data:  &pulledChunk{buf: rec.Payload},
			})
			if err != nil {
				d.fail(err)
				return
			}
		}
	})
}
