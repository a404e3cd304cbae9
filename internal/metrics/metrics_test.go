package metrics

import (
	"math"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Errorf("empty summary %+v", s)
	}
}

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Mean != 3 || s.P50 != 3 {
		t.Errorf("summary %+v", s)
	}
	wantSD := math.Sqrt(2)
	if math.Abs(s.Stddev-wantSD) > 1e-12 {
		t.Errorf("stddev %v want %v", s.Stddev, wantSD)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	Summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("input mutated: %v", in)
	}
}

func TestSummarizeProperties(t *testing.T) {
	f := func(xs []float64) bool {
		for _, x := range xs {
			// Summaries are of durations/byte counts; skip non-finite
			// inputs and magnitudes where float64 differences overflow.
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e150 {
				return true
			}
		}
		s := Summarize(xs)
		if len(xs) == 0 {
			return s.N == 0
		}
		return s.Min <= s.P50 && s.P50 <= s.Max &&
			s.Min <= s.Mean+1e-9 && s.Mean <= s.Max+1e-9 &&
			s.P50 <= s.P95+1e-9 && s.P95 <= s.P99+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBreakdown(t *testing.T) {
	b := NewBreakdown()
	b.Add("io", time.Second)
	b.Add("compute", 2*time.Second)
	b.Add("io", time.Second)
	if b.Get("io") != 2*time.Second {
		t.Errorf("io bucket %v", b.Get("io"))
	}
	if b.Total() != 4*time.Second {
		t.Errorf("total %v", b.Total())
	}
	names := b.Names()
	if len(names) != 2 || names[0] != "io" || names[1] != "compute" {
		t.Errorf("names %v", names)
	}
	if s := b.String(); !strings.Contains(s, "io=2s") {
		t.Errorf("string %q", s)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
			c.Add(5)
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8*1000+8*5 {
		t.Errorf("counter %d want %d", got, 8*1000+8*5)
	}
}

// TestVetFlagsCopies proves the noCopy embedding is load-bearing: `go
// vet` over the testdata/copycheck package (which copies a used
// Counter by value) must fail with copylocks diagnostics. testdata
// is invisible to ./... patterns, so the bad package never breaks a
// regular build or vet run.
func TestVetFlagsCopies(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	cmd := exec.Command(goBin, "vet", "./testdata/copycheck")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet accepted a by-value copy of Counter:\n%s", out)
	}
	text := string(out)
	if !strings.Contains(text, "copies lock") {
		t.Fatalf("vet failed for the wrong reason:\n%s", text)
	}
	// The Counter copy must be flagged; vet names the destination
	// variable and the containing type.
	for _, want := range []string{"copycheck.go", "metrics.Counter"} {
		if !strings.Contains(text, want) {
			t.Errorf("vet output lacks %q:\n%s", want, text)
		}
	}
}
