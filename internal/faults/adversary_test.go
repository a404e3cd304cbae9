package faults

import (
	"strings"
	"sync"
	"testing"
)

func TestParseAdversaryRoundTrip(t *testing.T) {
	spec := "corrupt:*:0.1:pull;corrupt:3:0.5:send;partition:8|9,10@1-2;partition:0,1|9@4-*;dup:9:0.3;dup:*:0.05"
	p, err := ParsePlan(spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Corrupts) != 2 {
		t.Fatalf("corrupts %+v", p.Corrupts)
	}
	if p.Corrupts[0] != (Rule{Endpoint: AnyEndpoint, Op: OpPull, Prob: 0.1}) {
		t.Errorf("corrupt[0] %+v", p.Corrupts[0])
	}
	if p.Corrupts[1] != (Rule{Endpoint: 3, Op: OpSendCtl, Prob: 0.5}) {
		t.Errorf("corrupt[1] %+v", p.Corrupts[1])
	}
	if len(p.Partitions) != 2 {
		t.Fatalf("partitions %+v", p.Partitions)
	}
	pt := p.Partitions[0]
	if len(pt.GroupA) != 1 || pt.GroupA[0] != 8 || len(pt.GroupB) != 2 || pt.From != 1 || pt.To != 2 {
		t.Errorf("partition[0] %+v", pt)
	}
	if p.Partitions[1].To != -1 {
		t.Errorf("open window parsed as %+v", p.Partitions[1])
	}
	if len(p.Dups) != 2 || p.Dups[0] != (Rule{Endpoint: 9, Prob: 0.3}) || p.Dups[1].Endpoint != AnyEndpoint {
		t.Errorf("dups %+v", p.Dups)
	}
	again, err := ParsePlan(p.String(), 42)
	if err != nil {
		t.Fatalf("round trip: %v (rendered %q)", err, p.String())
	}
	if again.String() != p.String() {
		t.Errorf("round trip %q != %q", again.String(), p.String())
	}
}

func TestParseAdversaryErrors(t *testing.T) {
	cases := []struct {
		spec string
		want string
	}{
		{"corrupt:1", "wants EP:PROB"},
		{"corrupt:1:2", "outside [0,1]"},
		{"corrupt:1:0.5:recv", "want pull|send|any"},
		{"corrupt:1:NaN", "outside [0,1]"},
		{"corrupt:2:0.1;corrupt:2:0.2", "duplicate corrupt rule"},
		{"partition:1@0-2", "want A|B"},
		{"partition:1|@0-2", "group is empty"},
		{"partition:|2@0-2", "group is empty"},
		{"partition:1,x|2@0-2", "non-negative endpoint id"},
		{"partition:*|2@0-2", "non-negative endpoint id"},
		{"partition:1|2", "wants A|B@FROM-TO"},
		{"partition:1|2@2", "wants FROM-TO"},
		{"partition:1|2@2-0", "must be >= 2 or *"},
		{"partition:1|2,1@0-2", "self-partition"},
		{"partition:1|2@0-3;partition:1,3|2@2-5", "partitions overlap"},
		{"partition:1|2@0-*;partition:2|1@9-9", "partitions overlap"},
		{"dup:1", "wants EP:PROB"},
		{"dup:1:-0.5", "outside [0,1]"},
		{"dup:1:NaN", "outside [0,1]"},
		{"dup:2:0.1;dup:2:0.2", "duplicate dup rule"},
	}
	for _, c := range cases {
		_, err := ParsePlan(c.spec, 1)
		if err == nil {
			t.Errorf("spec %q accepted", c.spec)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("spec %q: error %q does not mention %q", c.spec, err, c.want)
		}
	}
	// Disjoint windows and disjoint pairs stay legal.
	for _, spec := range []string{
		"partition:1|2@0-1;partition:1|2@3-4",
		"partition:1|2@0-4;partition:3|4@0-4",
		"corrupt:*:0.1;corrupt:3:0.2:pull",
	} {
		if _, err := ParsePlan(spec, 1); err != nil {
			t.Errorf("spec %q rejected: %v", spec, err)
		}
	}
}

func TestCorruptFaultDraws(t *testing.T) {
	in, err := NewInjector(Plan{Seed: 7, Corrupts: []Rule{{Endpoint: 3, Op: OpPull, Prob: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		pos, hit := in.CorruptFault(OpPull, 3, 3, 100)
		if !hit {
			t.Fatal("certain corruption did not fire")
		}
		if pos < 0 || pos >= 100 {
			t.Fatalf("flip offset %d outside payload", pos)
		}
	}
	if _, hit := in.CorruptFault(OpSendCtl, 3, 3, 100); hit {
		t.Error("pull-site rule fired at the send site")
	}
	if _, hit := in.CorruptFault(OpPull, 4, 4, 100); hit {
		t.Error("non-matching endpoint fired")
	}
	if _, hit := in.CorruptFault(OpPull, 3, 3, 0); hit {
		t.Error("empty payload corrupted")
	}
	if in.Stats().Corruptions.Load() != 32 {
		t.Errorf("corruption counter %d", in.Stats().Corruptions.Load())
	}
	// Same seed, same flip sequence.
	mk := func() []int {
		in2, err := NewInjector(Plan{Seed: 7, Corrupts: []Rule{{Endpoint: 3, Op: OpPull, Prob: 0.5}}})
		if err != nil {
			t.Fatal(err)
		}
		var seq []int
		for i := 0; i < 64; i++ {
			pos, hit := in2.CorruptFault(OpPull, 3, 3, 1<<20)
			if hit {
				seq = append(seq, pos)
			} else {
				seq = append(seq, -1)
			}
		}
		return seq
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different corruption sequences")
		}
	}
}

func TestUnreachableWindows(t *testing.T) {
	in, err := NewInjector(Plan{Partitions: []Partition{
		{GroupA: []int{0, 1}, GroupB: []int{9}, Window: Window{From: 1, To: 2}},
		{GroupA: []int{5}, GroupB: []int{6}, Window: Window{From: 4, To: -1}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		a, b int
		dump int64
		want bool
	}{
		{0, 9, 0, false}, {0, 9, 1, true}, {9, 0, 2, true}, {1, 9, 3, false},
		{0, 1, 1, false}, // same side of the cut
		{2, 9, 1, false}, // not in either group
		{5, 6, 3, false}, {5, 6, 4, true}, {6, 5, 100, true},
		{9, 9, 1, false}, // an endpoint always reaches itself
	}
	for _, c := range cases {
		if got := in.Unreachable(c.a, c.b, c.dump); got != c.want {
			t.Errorf("Unreachable(%d, %d, %d) = %v want %v", c.a, c.b, c.dump, got, c.want)
		}
	}
}

func TestDupFaultDraws(t *testing.T) {
	in, err := NewInjector(Plan{Seed: 1, Dups: []Rule{{Endpoint: 2, Prob: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if !in.DupFault(2, 2) {
		t.Error("certain dup did not fire")
	}
	if in.DupFault(3, 3) {
		t.Error("non-matching endpoint duplicated")
	}
	if in.Stats().Duplicates.Load() != 1 {
		t.Errorf("duplicate counter %d", in.Stats().Duplicates.Load())
	}
	in.NoteDupDrop()
	in.NoteUnreachable()
	if in.Stats().DupDrops.Load() != 1 || in.Stats().Unreachables.Load() != 1 {
		t.Error("note counters did not advance")
	}
}

func TestNilInjectorAdversaryInert(t *testing.T) {
	var in *Injector
	if _, hit := in.CorruptFault(OpPull, 0, 0, 100); hit {
		t.Error("nil injector corrupted")
	}
	if in.Unreachable(0, 1, 0) {
		t.Error("nil injector partitioned")
	}
	if in.DupFault(0, 0) {
		t.Error("nil injector duplicated")
	}
	in.NoteDupDrop()
	in.NoteUnreachable()
}

// FuzzParsePlan asserts the parse → String → parse round trip: every
// accepted spec renders to a form that reparses to the same rendering,
// and no input panics the parser.
func FuzzParsePlan(f *testing.F) {
	f.Add("transient:*:0.2;crash:9@1;degrade:3:0-2:4")
	f.Add("corrupt:*:0.1:pull;partition:8|9,10@1-2;dup:9:0.3")
	f.Add("partition:0,1|9@4-*")
	f.Add("corrupt:3:1:send")
	f.Add("crash:1@0;transient:1:0.5:recv")
	f.Add("dup:*:1e-3")
	f.Add(";;")
	f.Add("partition:1|2@0-3;partition:1,3|2@2-5")
	f.Add("restart:9@1:2;crashall@3")
	f.Add("restart:10@0")
	f.Add("crashall@0;crashall@2;restart:8@1:1")
	f.Add("partition:8|9@1-2;restart:9@2:1")
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePlan(spec, 1)
		if err != nil {
			return
		}
		rendered := p.String()
		again, err := ParsePlan(rendered, 1)
		if err != nil {
			t.Fatalf("accepted %q but rendering %q rejected: %v", spec, rendered, err)
		}
		if again.String() != rendered {
			t.Fatalf("rendering not a fixed point: %q -> %q", rendered, again.String())
		}
	})
}

// TestDupDrawsReplayPerSender: several senders send to one destination at
// once under a dup + transient plan, each making SendCtl's draws — the
// transient decision, then the dup decision for a message that goes out.
// Each sender's faults are the ones it draws alone, however the senders
// interleave: a plan replays from its seed.
func TestDupDrawsReplayPerSender(t *testing.T) {
	const senders, msgs, dst = 4, 200, 9
	plan, err := ParsePlan("transient:*:0.2:send;dup:*:0.3", 5)
	if err != nil {
		t.Fatal(err)
	}
	run := func(concurrent bool) (out [senders]string) {
		in, err := NewInjector(plan)
		if err != nil {
			t.Fatal(err)
		}
		send := func(s int) {
			var b strings.Builder
			for range msgs {
				switch {
				case in.OpFault(OpSendCtl, s, dst) != nil:
					b.WriteByte('t')
				case in.DupFault(s, dst):
					b.WriteByte('d')
				default:
					b.WriteByte('.')
				}
			}
			out[s] = b.String()
		}
		if !concurrent {
			for s := range senders {
				send(s)
			}
			return out
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for s := range senders {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				send(s)
			}()
		}
		close(start)
		wg.Wait()
		return out
	}
	alone := run(false)
	for s, seq := range alone {
		if !strings.Contains(seq, "t") || !strings.Contains(seq, "d") {
			t.Fatalf("sender %d drew no transient or no dup in %d messages: %s", s, msgs, seq)
		}
		if s > 0 && seq == alone[0] {
			t.Errorf("senders 0 and %d drew the same faults", s)
		}
	}
	got := run(true)
	for s := range got {
		if got[s] != alone[s] {
			t.Errorf("sender %d's faults depend on the other senders:\n together %s\n alone    %s", s, got[s], alone[s])
		}
	}
}
