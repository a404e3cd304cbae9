package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"io"
	"regexp"
	"sort"
	"strings"
)

// Finding is one driver-level result: a diagnostic resolved to a file
// position, tagged with its analyzer, after suppression.
type Finding struct {
	Analyzer string `json:"analyzer"`
	Path     string `json:"path"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
	// Suppressed marks findings silenced by a //predata:vet-ignore
	// directive; the driver keeps them for -json consumers but they do
	// not fail the run.
	Suppressed   bool   `json:"suppressed,omitempty"`
	SuppressedBy string `json:"suppressedBy,omitempty"`
}

// IgnoreDirective is the suppression comment honored by the driver:
//
//	//predata:vet-ignore <analyzer> <reason>
//
// placed on the offending line or on its own line immediately above.
// <analyzer> is one analyzer name or "all"; the reason is mandatory —
// a directive without one suppresses nothing and is itself reported.
const IgnoreDirective = "//predata:vet-ignore"

var directiveRE = regexp.MustCompile(`^//predata:vet-ignore\s+([A-Za-z0-9_]+)[ \t]+(\S.*)$`)

// directive is one parsed suppression comment.
type directive struct {
	analyzer  string
	reason    string
	line      int
	pos       token.Pos
	malformed bool
	// suppressed counts the findings this directive silenced in a run.
	suppressed int
}

// Waiver is one active //predata:vet-ignore directive observed during a
// run, with the number of findings it suppressed. A waiver whose
// Suppressed count is zero is stale: the code it excused no longer
// trips the analyzer, and the directive would silently mask a future
// regression.
type Waiver struct {
	Analyzer   string `json:"analyzer"`
	Reason     string `json:"reason"`
	Path       string `json:"path"`
	Line       int    `json:"line"`
	Suppressed int    `json:"suppressed"`
}

// collectDirectives scans a file's comments for vet-ignore directives.
func collectDirectives(fset *token.FileSet, f *ast.File) []directive {
	var out []directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimRight(c.Text, " \t")
			if !strings.HasPrefix(text, IgnoreDirective) {
				continue
			}
			d := directive{line: fset.Position(c.Pos()).Line, pos: c.Pos()}
			if m := directiveRE.FindStringSubmatch(text); m != nil {
				d.analyzer, d.reason = m[1], m[2]
			} else {
				d.malformed = true
			}
			out = append(out, d)
		}
	}
	return out
}

// RunAnalyzers applies every analyzer to every package and returns the
// findings, sorted by position, with suppression directives applied.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	findings, _, err := RunAnalyzersWithWaivers(pkgs, analyzers, false)
	return findings, err
}

// RunAnalyzersWithWaivers is RunAnalyzers plus the run's waiver audit:
// every well-formed directive naming an analyzer in this run (or "all"),
// with how many findings it suppressed. When full is false, directives
// for analyzers not in the run are omitted — a partial -run invocation
// cannot judge them. When full is set, analyzers is the whole suite, so
// a directive naming none of them can never suppress anything: it is
// reported as a finding and audited as a stale waiver.
func RunAnalyzersWithWaivers(pkgs []*Package, analyzers []*Analyzer, full bool) ([]Finding, []Waiver, error) {
	running := map[string]bool{}
	for _, a := range analyzers {
		running[a.Name] = true
	}
	var findings []Finding
	var waivers []Waiver
	for _, pkg := range pkgs {
		// Directive index: file path -> line -> directives on that line.
		type lineKey struct {
			path string
			line int
		}
		dirs := map[lineKey][]*directive{}
		var pkgDirs []*directive
		for _, f := range pkg.Files {
			for _, d := range collectDirectives(pkg.Fset, f) {
				d := d
				p := pkg.Fset.Position(d.pos)
				dirs[lineKey{p.Filename, d.line}] = append(dirs[lineKey{p.Filename, d.line}], &d)
				known := running[d.analyzer] || d.analyzer == "all"
				if !d.malformed && (known || full) {
					pkgDirs = append(pkgDirs, &d)
				}
				msg := ""
				switch {
				case d.malformed:
					msg = fmt.Sprintf("malformed directive: want %s <analyzer> <reason>", IgnoreDirective)
				case full && !known:
					msg = fmt.Sprintf("directive names %q, which is no analyzer in the suite; "+
						"it suppresses nothing", d.analyzer)
				}
				if msg != "" {
					findings = append(findings, Finding{
						Analyzer: "vet-ignore",
						Path:     p.Filename,
						Line:     d.line,
						Column:   p.Column,
						Message:  msg,
					})
				}
			}
		}
		suppressor := func(name string, pos token.Position) (string, bool) {
			for _, line := range []int{pos.Line, pos.Line - 1} {
				for _, d := range dirs[lineKey{pos.Filename, line}] {
					if d.malformed {
						continue
					}
					if d.analyzer == name || d.analyzer == "all" {
						d.suppressed++
						return d.reason, true
					}
				}
			}
			return "", false
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			pass.Report = func(d Diagnostic) {
				pos := pkg.Fset.Position(d.Pos)
				f := Finding{
					Analyzer: a.Name,
					Path:     pos.Filename,
					Line:     pos.Line,
					Column:   pos.Column,
					Message:  d.Message,
				}
				if reason, ok := suppressor(a.Name, pos); ok {
					f.Suppressed = true
					f.SuppressedBy = reason
				}
				findings = append(findings, f)
			}
			if err := a.Run(pass); err != nil {
				return nil, nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
		for _, d := range pkgDirs {
			p := pkg.Fset.Position(d.pos)
			waivers = append(waivers, Waiver{
				Analyzer:   d.analyzer,
				Reason:     d.reason,
				Path:       p.Filename,
				Line:       d.line,
				Suppressed: d.suppressed,
			})
		}
	}
	sort.Slice(waivers, func(i, j int) bool {
		a, b := waivers[i], waivers[j]
		if a.Path != b.Path {
			return a.Path < b.Path
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Analyzer < b.Analyzer
	})
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Path != b.Path {
			return a.Path < b.Path
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, waivers, nil
}

// WriteWaiversJSON renders the waiver audit as a JSON array.
func WriteWaiversJSON(w io.Writer, waivers []Waiver) error {
	if waivers == nil {
		waivers = []Waiver{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(waivers)
}

// WriteWaivers renders the waiver audit, flagging stale entries. It
// returns the number of stale waivers.
func WriteWaivers(w io.Writer, waivers []Waiver) int {
	stale := 0
	for _, wv := range waivers {
		status := fmt.Sprintf("suppressing %d finding(s)", wv.Suppressed)
		if wv.Suppressed == 0 {
			status = "STALE: suppresses nothing"
			stale++
		}
		fmt.Fprintf(w, "%s:%d: [%s] %s — %s\n", wv.Path, wv.Line, wv.Analyzer, status, wv.Reason)
	}
	return stale
}

// WriteText renders findings in the familiar file:line:col form,
// omitting suppressed ones. It reports how many active findings it
// wrote.
func WriteText(w io.Writer, findings []Finding) int {
	n := 0
	for _, f := range findings {
		if f.Suppressed {
			continue
		}
		fmt.Fprintf(w, "%s:%d:%d: [%s] %s\n", f.Path, f.Line, f.Column, f.Analyzer, f.Message)
		n++
	}
	return n
}

// WriteJSON renders every finding — suppressed included — as a JSON
// array for tooling consumption.
func WriteJSON(w io.Writer, findings []Finding) error {
	if findings == nil {
		findings = []Finding{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(findings)
}
