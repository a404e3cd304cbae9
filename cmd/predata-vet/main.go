// Command predata-vet runs the project's static-analysis suite — the
// invariants the Go compiler cannot check — over any package pattern:
//
//	predata-vet ./...
//	predata-vet -json ./internal/staging ./internal/predata
//	predata-vet -run typederr ./...   # one analyzer only
//	predata-vet -report-waivers ./... # audit vet-ignore directives
//
// Analyzers (see DESIGN.md §7 and §12 for the invariant behind each):
//
//	collectivecheck  collectives under rank-dependent control flow
//	ctxdeadline      unbounded retry/backoff loops
//	goroutineleak    goroutines without a join mechanism
//	lockhold         blocking operations while a mutex is held
//	mustrelease      staging chunks (exactly once), budget leases, journal
//	                 handles and trace spans must be released on every path
//	typederr         ==/!= against sentinel errors instead of errors.Is
//
// A finding is suppressed by a comment on the offending line or the
// line immediately above:
//
//	//predata:vet-ignore <analyzer> <reason>
//
// The reason is mandatory; a bare directive is itself reported, and so,
// when no -run narrows the suite, is a directive naming no analyzer in
// it. -report-waivers lists every directive for the analyzers in the run
// with the number of findings it suppressed and exits 1 if any waiver
// suppresses nothing (stale: the excused code no longer trips the
// analyzer, so the directive only masks future regressions). Exit
// status: 0 clean, 1 findings (or stale waivers), 2 usage or load
// failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"predata/internal/analysis"
	"predata/internal/analysis/suite"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("predata-vet", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit findings as JSON (suppressed findings included)")
	only := fs.String("run", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "list analyzers and exit")
	reportWaivers := fs.Bool("report-waivers", false,
		"audit vet-ignore directives; exit 1 if any suppresses nothing")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: predata-vet [-json] [-run names] [-report-waivers] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := suite.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		var picked []*analysis.Analyzer
		for _, name := range strings.Split(*only, ",") {
			a := suite.ByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(os.Stderr, "predata-vet: unknown analyzer %q\n", name)
				return 2
			}
			picked = append(picked, a)
		}
		analyzers = picked
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "predata-vet: %v\n", err)
		return 2
	}
	pkgs, err := analysis.Load(cwd, fs.Args()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "predata-vet: %v\n", err)
		return 2
	}
	findings, waivers, err := analysis.RunAnalyzersWithWaivers(pkgs, analyzers, *only == "")
	if err != nil {
		fmt.Fprintf(os.Stderr, "predata-vet: %v\n", err)
		return 2
	}

	if *reportWaivers {
		if *jsonOut {
			if err := analysis.WriteWaiversJSON(os.Stdout, waivers); err != nil {
				fmt.Fprintf(os.Stderr, "predata-vet: %v\n", err)
				return 2
			}
			for _, w := range waivers {
				if w.Suppressed == 0 {
					return 1
				}
			}
			return 0
		}
		if stale := analysis.WriteWaivers(os.Stdout, waivers); stale > 0 {
			fmt.Fprintf(os.Stderr, "predata-vet: %d stale waiver(s): remove the directive or re-justify it\n", stale)
			return 1
		}
		return 0
	}

	if *jsonOut {
		if err := analysis.WriteJSON(os.Stdout, findings); err != nil {
			fmt.Fprintf(os.Stderr, "predata-vet: %v\n", err)
			return 2
		}
		for _, f := range findings {
			if !f.Suppressed {
				return 1
			}
		}
		return 0
	}
	if n := analysis.WriteText(os.Stdout, findings); n > 0 {
		return 1
	}
	return 0
}
