package faults

import (
	"errors"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func TestParsePlanRoundTrip(t *testing.T) {
	spec := "transient:*:0.2;crash:9@1;degrade:3:0-2:4;transient:7:0.5:pull;degrade:*:1-*:2"
	p, err := ParsePlan(spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 42 {
		t.Errorf("seed %d", p.Seed)
	}
	if len(p.Crashes) != 1 || p.Crashes[0] != (Crash{Endpoint: 9, AtDump: 1}) {
		t.Errorf("crashes %+v", p.Crashes)
	}
	if len(p.Transients) != 2 {
		t.Fatalf("transients %+v", p.Transients)
	}
	if p.Transients[0] != (Rule{Endpoint: AnyEndpoint, Op: OpAny, Prob: 0.2}) {
		t.Errorf("transient[0] %+v", p.Transients[0])
	}
	if p.Transients[1] != (Rule{Endpoint: 7, Op: OpPull, Prob: 0.5}) {
		t.Errorf("transient[1] %+v", p.Transients[1])
	}
	if len(p.Degrades) != 2 || p.Degrades[1].To != -1 {
		t.Errorf("degrades %+v", p.Degrades)
	}
	// The rendered form reparses to the same plan.
	again, err := ParsePlan(p.String(), 42)
	if err != nil {
		t.Fatalf("round trip: %v (rendered %q)", err, p.String())
	}
	if again.String() != p.String() {
		t.Errorf("round trip %q != %q", again.String(), p.String())
	}
}

func TestParsePlanErrors(t *testing.T) {
	bad := []string{
		"boom",
		"explode:1:0.5",
		"crash:1",
		"crash:x@2",
		"crash:1@-2",
		"transient:1",
		"transient:*:1.5",
		"transient:*:0.5:implode",
		"transient:-3:0.5",
		"degrade:1:0-2",
		"degrade:1:2-0:4",
		"degrade:1:0-2:0.5",
		"transient:*:NaN",
		"degrade:1:0-2:NaN",
		"degrade:1:0-2:Inf",
		"",
		"   ",
		";;",
		"  ;; ",
		"crash:1@0;crash:1@3",
		"transient:2:0.1;transient:2:0.2",
	}
	for _, spec := range bad {
		if _, err := ParsePlan(spec, 1); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

func TestParsePlanErrorMessages(t *testing.T) {
	cases := []struct {
		spec string
		want string
	}{
		{"", "contains no directives"},
		{"  ;; ", "contains no directives"},
		{"crash:1@0;crash:1@3", "crashed twice"},
		{"transient:2:0.1;transient:2:0.2", "duplicate transient rule"},
		{"transient:*:1.5", "outside [0,1]"},
		{"boom", "missing ':'"},
		{"explode:1:0.5", "unknown directive"},
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
}

func TestParsePlanLayeredTransientsLegal(t *testing.T) {
	// Different scopes on the same endpoint layer deliberately: a blanket
	// any-op rule plus an op-specific one must both survive validation.
	for _, spec := range []string{
		"transient:*:0.1;transient:*:0.3:pull",
		"transient:2:0.1:pull;transient:2:0.2:send",
		"crash:1@0;crash:2@0",
	} {
		if _, err := ParsePlan(spec, 1); err != nil {
			t.Errorf("spec %q rejected: %v", spec, err)
		}
	}
}

func TestTypedErrors(t *testing.T) {
	in, err := NewInjector(Plan{Seed: 1, Transients: []Rule{{Endpoint: AnyEndpoint, Op: OpAny, Prob: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	faultErr := in.OpFault(OpPull, 3, 3)
	if !errors.Is(faultErr, ErrTransient) {
		t.Errorf("certain fault returned %v", faultErr)
	}
	if errors.Is(faultErr, ErrEndpointDown) {
		t.Error("transient fault matched ErrEndpointDown")
	}
	if !strings.Contains(faultErr.Error(), "pull") || !strings.Contains(faultErr.Error(), "3") {
		t.Errorf("fault error lacks context: %v", faultErr)
	}
	if in.Stats().Transients.Load() != 1 {
		t.Errorf("transient counter %d", in.Stats().Transients.Load())
	}
}

func TestOpFaultDeterministicPerSeed(t *testing.T) {
	mk := func(seed int64) []bool {
		in, err := NewInjector(Plan{Seed: seed, Transients: []Rule{{Endpoint: AnyEndpoint, Op: OpAny, Prob: 0.5}}})
		if err != nil {
			t.Fatal(err)
		}
		seq := make([]bool, 64)
		for i := range seq {
			seq[i] = in.OpFault(OpPull, 2, 2) != nil
		}
		return seq
	}
	a, b, c := mk(7), mk(7), mk(8)
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different fault sequences")
		}
		if a[i] {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Errorf("p=0.5 fired %d/%d", fired, len(a))
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical fault sequences")
	}
}

func TestOpFaultMatching(t *testing.T) {
	in, err := NewInjector(Plan{Seed: 1, Transients: []Rule{{Endpoint: 4, Op: OpSendCtl, Prob: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.OpFault(OpSendCtl, 4, 4); !errors.Is(err, ErrTransient) {
		t.Error("matching op/endpoint did not fire")
	}
	if err := in.OpFault(OpPull, 4, 4); err != nil {
		t.Errorf("non-matching op fired: %v", err)
	}
	if err := in.OpFault(OpSendCtl, 5, 5); err != nil {
		t.Errorf("non-matching endpoint fired: %v", err)
	}
}

func TestDownAt(t *testing.T) {
	in, err := NewInjector(Plan{Crashes: []Crash{{Endpoint: 9, AtDump: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if in.DownAt(9, 1) {
		t.Error("down before its crash dump")
	}
	if !in.DownAt(9, 2) || !in.DownAt(9, 5) {
		t.Error("not down at/after its crash dump")
	}
	if in.DownAt(8, 5) {
		t.Error("uncrashed endpoint down")
	}
}

func TestDegradeFactorWindows(t *testing.T) {
	in, err := NewInjector(Plan{Degrades: []Degrade{
		{Endpoint: 3, Window: Window{From: 1, To: 2}, Factor: 4},
		{Endpoint: AnyEndpoint, Window: Window{From: 5, To: -1}, Factor: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		ep   int
		dump int64
		want float64
	}{
		{3, 0, 1}, {3, 1, 4}, {3, 2, 4}, {3, 3, 1}, {3, 7, 2},
		{0, 1, 1}, {0, 5, 2}, {0, 100, 2},
	}
	for _, c := range cases {
		if got := in.DegradeFactor(c.ep, c.dump); got != c.want {
			t.Errorf("DegradeFactor(%d, %d) = %g want %g", c.ep, c.dump, got, c.want)
		}
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if err := in.OpFault(OpPull, 0, 0); err != nil {
		t.Error("nil injector faulted")
	}
	if in.DownAt(0, 0) {
		t.Error("nil injector crashed an endpoint")
	}
	if in.DegradeFactor(0, 0) != 1 {
		t.Error("nil injector degraded")
	}
	if in.Stats() != nil {
		t.Error("nil injector has stats")
	}
	if !reflect.DeepEqual(in.Plan(), Plan{}) {
		t.Error("nil injector has a plan")
	}
	in.NoteDownRefusal()
}

func TestNewInjectorValidates(t *testing.T) {
	if _, err := NewInjector(Plan{Transients: []Rule{{Prob: 2}}}); err == nil {
		t.Error("probability 2 accepted")
	}
	if _, err := NewInjector(Plan{Degrades: []Degrade{{Factor: 0.5, Window: Window{To: -1}}}}); err == nil {
		t.Error("speed-up degrade accepted")
	}
	if _, err := NewInjector(Plan{Crashes: []Crash{{Endpoint: -2}}}); err == nil {
		t.Error("negative crash endpoint accepted")
	}
}

// TestDrawSequencePinned holds the injector's draws to a recorded
// sequence: transient, corrupt and dup rules over three target endpoints,
// operations on them issued by two other endpoints (an exposure by the
// target itself), with the three draw calls interleaved. Each entry is
// "." for a miss, "t" for a transient, "d" for a duplicate and the flip
// offset for a corruption. A seed must replay the same faults in every
// build, so any change to rule matching, generator seeding or keying, or
// draw order fails here.
func TestDrawSequencePinned(t *testing.T) {
	p, err := ParsePlan("transient:*:0.3;transient:5:0.6:pull;corrupt:5:0.4:pull;"+
		"corrupt:*:0.2:send;corrupt:6:0.5;dup:6:0.5;dup:*:0.1", 17)
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInjector(p)
	if err != nil {
		t.Fatal(err)
	}
	const want = "t . 166 54 . . t 174 45 . t . . . . . . 435 . . . . 72 . . " +
		"t . . . d t . 169 . d . . 68 60 . . . . 31 d . t 626 . . " +
		"t t . . . t . . . d . . . . . . . . . . t . . . . " +
		"t t . 25 . t t . . . t . . . d . . 39 . . t . 783 . . " +
		"t . . . . . . . 57 d . . . . . t t . . . . . 222 46 . " +
		". t . . . . . . . . . t 874 . . . . 932 49 . t t . . . " +
		". . 506 . . t . . 24 d . . . 19 d . t 882 31 . . . 346 . . " +
		"t . . . . . t 948 . . . . 608 . . t t . . . t . 873 40 . " +
		"t . . 0 . t . . . d t . . . . . t . . . . . . . d " +
		". . . . . t t 1229 59 . t . . . d . . 846 32 . . . 830 57 . " +
		"t . . 42 . . . 68 . d . . . . . . . . 14 d t t . 45 . " +
		"t . . . . . t . . . . t . . . t t 198 10 . . . . . d"
	got := make([]string, 0, 300)
	for i := 0; i < 300; i++ {
		ep, from := 4+i%3, i%2
		hit := "."
		switch i % 5 {
		case 0:
			if in.OpFault(OpPull, from, ep) != nil {
				hit = "t"
			}
		case 1:
			if in.OpFault(OpSendCtl, from, ep) != nil {
				hit = "t"
			}
		case 2:
			if pos, ok := in.CorruptFault(OpPull, from, ep, 1000+i); ok {
				hit = strconv.Itoa(pos)
			}
		case 3:
			if pos, ok := in.CorruptFault(OpSendCtl, ep, ep, 64); ok {
				hit = strconv.Itoa(pos)
			}
		case 4:
			if in.DupFault(from, ep) {
				hit = "d"
			}
		}
		got = append(got, hit)
	}
	if s := strings.Join(got, " "); s != want {
		t.Errorf("draw sequence changed:\n got %s\nwant %s", s, want)
	}
	st := in.Stats()
	if n, c, d := st.Transients.Load(), st.Corruptions.Load(), st.Duplicates.Load(); n != 45 || c != 43 || d != 14 {
		t.Errorf("stats transients=%d corruptions=%d duplicates=%d, want 45 43 14", n, c, d)
	}
}

// TestPlanStringPinned renders the example in ParsePlan's doc comment:
// the order is fixed by kind, a transient's default op is spelled out,
// and every other directive reads back as written.
func TestPlanStringPinned(t *testing.T) {
	const doc = "transient:*:0.2;crash:9@1;degrade:3:0-2:4;corrupt:*:0.1:pull;partition:8|9,10@1-2;dup:9:0.3;restart:10@3:1;crashall@4"
	p, err := ParsePlan(doc, 1)
	if err != nil {
		t.Fatal(err)
	}
	const want = "crash:9@1;transient:*:0.2:any;degrade:3:0-2:4;corrupt:*:0.1:pull;partition:8|9,10@1-2;dup:9:0.3;restart:10@3:1;crashall@4"
	if got := p.String(); got != want {
		t.Errorf("String() = %q\n want %q", got, want)
	}
}
