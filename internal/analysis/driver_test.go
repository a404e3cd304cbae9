package analysis

import (
	"bytes"
	"go/ast"
	"go/importer"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// checkSource parses and type-checks one synthetic file as a module
// package, reusing the production CheckUnit path.
func checkSource(t *testing.T, src string) *Package {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	pkg, err := CheckUnit(fset, importer.ForCompiler(fset, "source", nil),
		ModulePath+"/synthetic", dir, []string{"a.go"})
	if err != nil {
		t.Fatalf("CheckUnit: %v", err)
	}
	return pkg
}

// funcReporter flags every function declaration — a deterministic way to
// exercise the driver's suppression plumbing.
var funcReporter = &Analyzer{
	Name: "fake",
	Doc:  "reports every func decl",
	Run: func(pass *Pass) error {
		for _, f := range pass.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					pass.Reportf(fd.Pos(), "func %s", fd.Name.Name)
				}
			}
		}
		return nil
	},
}

func TestSuppressionDirectives(t *testing.T) {
	pkg := checkSource(t, `package p

func f1() {}

//predata:vet-ignore fake covered by integration harness
func f2() {}

func f3() {} //predata:vet-ignore fake trailing-comment form

//predata:vet-ignore all blanket waiver with reason
func f4() {}

//predata:vet-ignore otherpass reason aimed at a different analyzer
func f5() {}

//predata:vet-ignore fake
func f6() {}
`)
	findings, err := RunAnalyzers([]*Package{pkg}, []*Analyzer{funcReporter})
	if err != nil {
		t.Fatal(err)
	}

	byMessage := map[string]Finding{}
	for _, f := range findings {
		byMessage[f.Message] = f
	}
	wantSuppressed := map[string]bool{
		"func f1": false,
		"func f2": true,  // directive on the line above
		"func f3": true,  // directive trailing the same line
		"func f4": true,  // "all" applies to every analyzer
		"func f5": false, // directive names a different analyzer
		"func f6": false, // reason missing: directive is void
	}
	for msg, want := range wantSuppressed {
		got, ok := byMessage[msg]
		if !ok {
			t.Fatalf("missing finding %q in %+v", msg, findings)
		}
		if got.Suppressed != want {
			t.Errorf("%s: suppressed = %v, want %v", msg, got.Suppressed, want)
		}
		if want && got.SuppressedBy == "" {
			t.Errorf("%s: suppressed without a recorded reason", msg)
		}
	}
	// The reasonless directive is itself a finding.
	malformed := 0
	for _, f := range findings {
		if f.Analyzer == "vet-ignore" {
			malformed++
			if f.Suppressed {
				t.Errorf("malformed-directive finding must not be suppressible")
			}
		}
	}
	if malformed != 1 {
		t.Errorf("malformed directive findings = %d, want 1", malformed)
	}

	var text bytes.Buffer
	if n := WriteText(&text, findings); n != 4 { // f1, f5, f6, malformed
		t.Errorf("WriteText active count = %d, want 4\n%s", n, text.String())
	}
	if strings.Contains(text.String(), "func f2") {
		t.Errorf("suppressed finding leaked into text output:\n%s", text.String())
	}

	var js bytes.Buffer
	if err := WriteJSON(&js, findings); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"func f2", "blanket waiver with reason", `"suppressed": true`} {
		if !strings.Contains(js.String(), want) {
			t.Errorf("JSON output missing %q:\n%s", want, js.String())
		}
	}
}

func TestWaiverAudit(t *testing.T) {
	pkg := checkSource(t, `package p

//predata:vet-ignore fake covers a live finding
func f1() {}

//predata:vet-ignore fake stale: nothing on this line trips the analyzer
var x = 1

//predata:vet-ignore all blanket waiver, also live
func f2() {}

//predata:vet-ignore otherpass not in this run
func f3() {}

//predata:vet-ignore fake
func f4() {}
`)
	_, waivers, err := RunAnalyzersWithWaivers([]*Package{pkg}, []*Analyzer{funcReporter}, false)
	if err != nil {
		t.Fatal(err)
	}
	// otherpass is not in the run and the reasonless directive is
	// malformed: neither appears in the audit.
	if len(waivers) != 3 {
		t.Fatalf("waivers = %+v, want 3 entries", waivers)
	}
	counts := map[string]int{}
	for _, w := range waivers {
		counts[w.Reason] = w.Suppressed
		if w.Path == "" || w.Line == 0 {
			t.Errorf("waiver missing position: %+v", w)
		}
	}
	if counts["covers a live finding"] != 1 {
		t.Errorf("live fake waiver suppressed = %d, want 1", counts["covers a live finding"])
	}
	if counts["stale: nothing on this line trips the analyzer"] != 0 {
		t.Errorf("stale waiver suppressed = %d, want 0", counts["stale: nothing on this line trips the analyzer"])
	}
	if counts["blanket waiver, also live"] != 1 {
		t.Errorf("all-waiver suppressed = %d, want 1", counts["blanket waiver, also live"])
	}

	var buf bytes.Buffer
	if stale := WriteWaivers(&buf, waivers); stale != 1 {
		t.Errorf("WriteWaivers stale = %d, want 1\n%s", stale, buf.String())
	}
	if !strings.Contains(buf.String(), "STALE") {
		t.Errorf("stale waiver not flagged:\n%s", buf.String())
	}

	var js bytes.Buffer
	if err := WriteWaiversJSON(&js, waivers); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"suppressed": 0`) {
		t.Errorf("JSON waiver audit missing zero count:\n%s", js.String())
	}
}

// TestWaiverNamingNoAnalyzer: in a full-suite run a directive whose
// analyzer is not in the suite (a pass since merged or renamed) is a
// finding and a stale waiver; a partial run leaves it unjudged.
func TestWaiverNamingNoAnalyzer(t *testing.T) {
	pkg := checkSource(t, `package p

//predata:vet-ignore fake covers a live finding
func f1() {}

//predata:vet-ignore chunkrelease the pass this named is gone
func f2() {}
`)
	for _, full := range []bool{true, false} {
		findings, waivers, err := RunAnalyzersWithWaivers([]*Package{pkg}, []*Analyzer{funcReporter}, full)
		if err != nil {
			t.Fatal(err)
		}
		var reported []Finding
		for _, f := range findings {
			if f.Analyzer == "vet-ignore" {
				reported = append(reported, f)
			}
		}
		stale := WriteWaivers(io.Discard, waivers)
		if !full {
			if len(reported) != 0 || len(waivers) != 1 || stale != 0 {
				t.Errorf("partial run: directive findings %+v, waivers %+v; want none and the fake waiver", reported, waivers)
			}
			continue
		}
		if len(reported) != 1 || !strings.Contains(reported[0].Message, `"chunkrelease"`) ||
			reported[0].Line != 6 || reported[0].Suppressed {
			t.Errorf("full run: directive findings = %+v, want one unsuppressed finding on line 6 naming chunkrelease", reported)
		}
		if len(waivers) != 2 || stale != 1 {
			t.Errorf("full run: waivers = %+v (stale %d), want the fake waiver and one stale chunkrelease waiver", waivers, stale)
		}
	}
}

func TestFindingsSorted(t *testing.T) {
	pkg := checkSource(t, `package p

func b() {}

func a() {}
`)
	findings, err := RunAnalyzers([]*Package{pkg}, []*Analyzer{funcReporter})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 2 || findings[0].Line >= findings[1].Line {
		t.Fatalf("findings not in position order: %+v", findings)
	}
}
