package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// chromeEvent is one entry in Chrome's trace_event JSON format
// (chrome://tracing, Perfetto). Timestamps are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeDoc is the top-level trace_event object form.
type chromeDoc struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	Metadata        map[string]any `json:"otherData,omitempty"`
}

// phaseCat buckets phases into Chrome categories so the timeline can
// filter by subsystem.
func phaseCat(p Phase) string {
	switch p {
	case PhaseWrite, PhasePull, PhaseRecvCtl, PhaseSendCtl, PhaseFault,
		PhaseEndpointDown, PhaseRefusal, PhaseRetry, PhaseReroute,
		PhaseCorrupt, PhaseDupDrop, PhaseUnreachable:
		return "fabric"
	case PhaseGather, PhaseAggregate, PhaseRecovery, PhaseCrashExit, PhaseDrop,
		PhaseCorruptDetect, PhaseCorruptDrop, PhaseProbe, PhaseHeal:
		return "pipeline"
	case PhaseScale, PhaseScaleEpoch, PhaseHandoff, PhaseDrain:
		return "elastic"
	case PhaseInitialize, PhaseMap, PhaseCombine, PhaseShuffle,
		PhaseReduce, PhaseFinalize, PhaseChunk:
		return "engine"
	case PhaseThrottle, PhaseSpill, PhasePass, PhaseShed, PhaseReplay,
		PhaseLease, PhaseBudgetCap, PhaseOverload:
		return "flowctl"
	case PhaseCollective:
		return "mpi"
	}
	return "other"
}

// WriteChrome exports the recording as Chrome trace_event JSON with
// one track (thread) per rank: load the file in chrome://tracing or
// Perfetto to see the per-rank phase timeline.
func WriteChrome(w io.Writer, rec *Recording) error {
	if rec == nil {
		return fmt.Errorf("trace: nil recording")
	}
	doc := chromeDoc{
		DisplayTimeUnit: "ms",
		Metadata: map[string]any{
			"numCompute": rec.NumCompute,
			"numStaging": rec.NumStaging,
			"dumps":      rec.Dumps,
			"dropped":    rec.Dropped,
		},
	}
	// Name each rank's track: compute ranks first, staging after, as
	// the pipeline numbers world endpoints.
	seen := map[int32]bool{}
	for i := range rec.Events {
		r := rec.Events[i].Rank
		if r < 0 || seen[r] {
			continue
		}
		seen[r] = true
		role := "compute"
		if rec.NumCompute > 0 && int(r) >= rec.NumCompute {
			role = "staging"
		}
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: int(r),
			Args: map[string]any{"name": fmt.Sprintf("rank %d (%s)", r, role)},
		})
	}
	for i := range rec.Events {
		e := &rec.Events[i]
		ce := chromeEvent{
			Name: e.Name(),
			Cat:  phaseCat(e.Phase),
			Ts:   float64(e.Start) / 1e3,
			Pid:  1,
			Tid:  int(e.Rank),
			Args: map[string]any{"dump": e.Dump, "seq": e.Seq, "arg": e.Arg},
		}
		if e.Endpoint >= 0 {
			ce.Args["endpoint"] = e.Endpoint
		}
		switch e.Kind {
		case KindSpan:
			ce.Ph = "X"
			ce.Dur = float64(e.End-e.Start) / 1e3
		default:
			ce.Ph = "i"
			ce.S = "t"
			if e.Phase == PhaseCollective {
				ce.Name = "collective:" + CollName(e.Endpoint)
			}
		}
		doc.TraceEvents = append(doc.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&doc)
}
