// Command predata-bench regenerates the tables and figures of the
// PreDatA paper's evaluation (IPDPS 2010, Section V) and runs the soak
// experiments that gate the runtime's loss/replay/verify contracts.
//
// Usage:
//
//	predata-bench -experiment fig7 [-op sort|hist|hist2d|all]
//	predata-bench -experiment fig8|fig9|fig10|fig11|offline|des|ablations
//	predata-bench -experiment chaos|overload|trace|elastic|adversary|restart|serve [-json PATH]
//	predata-bench -experiment all [-json PATH]
//
// Model rows reproduce the paper's scales (512-16,384 cores); functional
// mini-runs exercise the real pipeline at laptop scale. With -json PATH
// the seed and every selected experiment's parameters and per-leg rows
// are written there as one document; without it no file is written.
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
	jsonPath := flag.String("json", "",
		"write {seed, experiments: [{experiment, params, runs}]} for the selected experiments to this path")
	flag.Parse()

	if err := run(os.Stdout, bench.Experiments(*op), *experiment, *jsonPath); err != nil {
		fmt.Fprintln(os.Stderr, "predata-bench:", err)
		os.Exit(1)
	}
}

// run walks the registry in order, running the named experiment or, for
// "all", every one, then emits the document they built.
func run(w io.Writer, registry []bench.Experiment, experiment, jsonPath string) error {
	rep, err := bench.NewReport(w)
	if err != nil {
		return err
	}
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
	return rep.Emit(jsonPath)
}
