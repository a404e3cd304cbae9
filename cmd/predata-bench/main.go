// Command predata-bench regenerates the tables and figures of the
// PreDatA paper's evaluation (IPDPS 2010, Section V).
//
// Usage:
//
//	predata-bench -experiment fig7 [-op sort|hist|hist2d|all]
//	predata-bench -experiment fig8|fig9|fig10|fig11
//	predata-bench -experiment chaos
//	predata-bench -experiment overload [-json BENCH_overload.json]
//	predata-bench -experiment trace [-json BENCH_trace.json]
//	predata-bench -experiment elastic [-json BENCH_elastic.json]
//	predata-bench -experiment adversary [-json BENCH_adversary.json]
//	predata-bench -experiment restart [-json BENCH_restart.json]
//	predata-bench -experiment serve [-json BENCH_serve.json]
//	predata-bench -experiment ablations
//	predata-bench -experiment all
//
// Model rows reproduce the paper's scales (512-16,384 cores); functional
// mini-runs exercise the real pipeline at laptop scale.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"predata/internal/bench"
)

func main() {
	experiment := flag.String("experiment", "all",
		"which experiment to regenerate: fig7|fig8|fig9|fig10|fig11|offline|des|chaos|overload|trace|elastic|adversary|restart|serve|ablations|all")
	op := flag.String("op", "all", "fig7 operator: sort|hist|hist2d|all")
	jsonPath := flag.String("json", "",
		"overload/trace/elastic/adversary/restart/serve experiments: write the summary as JSON to this path (default BENCH_<experiment>.json; -experiment all writes only the overload summary, to BENCH_overload.json; an explicit empty path disables)")
	flag.Parse()

	// Unless -json was given (even as ""), each experiment writes to its
	// own BENCH_<experiment>.json.
	jsonSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "json" {
			jsonSet = true
		}
	})
	if !jsonSet {
		name := *experiment
		if name == "all" {
			name = "overload"
		}
		*jsonPath = "BENCH_" + name + ".json"
	}

	if err := run(os.Stdout, *experiment, *op, *jsonPath); err != nil {
		fmt.Fprintln(os.Stderr, "predata-bench:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, experiment, op, jsonPath string) error {
	ablations := func() error {
		if err := bench.AblationScheduling(w); err != nil {
			return err
		}
		if err := bench.AblationCombine(w); err != nil {
			return err
		}
		if err := bench.AblationRatio(w); err != nil {
			return err
		}
		if err := bench.AblationFunctionalScaling(w); err != nil {
			return err
		}
		return bench.AblationBitmap(w)
	}
	switch experiment {
	case "fig7":
		return bench.Fig7(w, op)
	case "fig8":
		return bench.Fig8(w)
	case "fig9":
		return bench.Fig9(w)
	case "fig10":
		return bench.Fig10(w)
	case "fig11":
		return bench.Fig11(w)
	case "offline":
		return bench.Offline(w)
	case "des":
		return bench.DESCrossCheck(w)
	case "chaos":
		return bench.Chaos(w)
	case "overload":
		return bench.Overload(w, jsonPath)
	case "trace":
		return bench.Trace(w, jsonPath)
	case "elastic":
		return bench.Elastic(w, jsonPath)
	case "adversary":
		return bench.Adversary(w, jsonPath)
	case "restart":
		return bench.Restart(w, jsonPath)
	case "serve":
		return bench.Serve(w, jsonPath)
	case "ablations":
		return ablations()
	case "all":
		for _, f := range []func(io.Writer) error{
			func(w io.Writer) error { return bench.Fig7(w, op) },
			bench.Fig8, bench.Fig9, bench.Fig10, bench.Fig11, bench.Offline,
			bench.DESCrossCheck, bench.Chaos,
			func(w io.Writer) error { return bench.Overload(w, jsonPath) },
			// trace, elastic and adversary write no JSON under "all" so
			// they cannot clobber the overload trajectory sharing the
			// -json flag.
			func(w io.Writer) error { return bench.Trace(w, "") },
			func(w io.Writer) error { return bench.Elastic(w, "") },
			func(w io.Writer) error { return bench.Adversary(w, "") },
			func(w io.Writer) error { return bench.Restart(w, "") },
			func(w io.Writer) error { return bench.Serve(w, "") },
		} {
			if err := f(w); err != nil {
				return err
			}
		}
		return ablations()
	default:
		return fmt.Errorf("unknown experiment %q", experiment)
	}
}
