// Command predata-bench regenerates the tables and figures of the
// PreDatA paper's evaluation (IPDPS 2010, Section V) and the
// design-choice ablations.
//
// Usage:
//
//	predata-bench -experiment fig7 [-op sort|hist|hist2d|all]
//	predata-bench -experiment fig8|fig9|fig10|fig11|offline|des|ablations
//	predata-bench -experiment all
//
// Model rows reproduce the paper's scales (512-16,384 cores); functional
// mini-runs exercise the real pipeline at laptop scale. Output goes to
// stdout only.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"predata/internal/bench"
)

func main() {
	var names []string
	for _, e := range bench.Experiments("") {
		names = append(names, e.Name)
	}
	experiment := flag.String("experiment", "all",
		"which experiment to regenerate: "+strings.Join(names, "|")+"|all")
	op := flag.String("op", "all", "fig7 operator: sort|hist|hist2d|all")
	flag.Parse()

	if err := run(os.Stdout, bench.Experiments(*op), *experiment); err != nil {
		fmt.Fprintln(os.Stderr, "predata-bench:", err)
		os.Exit(1)
	}
}

// run walks the registry in order, running the named experiment or, for
// "all", every one.
func run(w io.Writer, registry []bench.Experiment, experiment string) error {
	rep := bench.NewReport(w)
	known := false
	for _, e := range registry {
		if experiment != "all" && experiment != e.Name {
			continue
		}
		known = true
		if err := e.Run(rep); err != nil {
			return err
		}
	}
	if !known {
		return fmt.Errorf("unknown experiment %q", experiment)
	}
	return nil
}
