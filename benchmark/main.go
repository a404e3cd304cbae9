// Command benchmark is the repository's performance benchmark: four
// long-running workloads over the PreDatA data path, each checked against
// a naive reference, reporting end-to-end metrics and a per-layer ledger.
// BENCHMARK.json at the repository root declares the contract; README.md
// in this directory explains every workload and metric.
//
//	go run ./benchmark -seed 1                  # every workload
//	go run ./benchmark -workload gtc-sort -seed 7 -trace 1
//	go run ./benchmark -compare A.json B.json   # two result sets
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 16

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process exit, so the self-test can drive it.
// Exit codes: 0 correct, 1 an oracle mismatch, failed operation or
// regression, 2 the benchmark itself could not run.
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		name    = fl.String("workload", "", "run one workload (default: all of them, in order)")
		seed    = fl.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds = fl.Float64("seconds", defaultSeconds, "how long each workload measures")
		traceOn = fl.Int("trace", 0, "1 adds the traced repetition and the layer walk and reports the per-layer ledger")
		sc      = fl.String("scale", string(scaleFull), "input sizes: full, or tiny for the self-test")
		outDir  = fl.String("out", filepath.Join("benchmark", "out"), "directory for span files, result sets and scratch space")
		jsonOut = fl.String("json", "", "result set to append this run to (default <out>/results.json)")
		compare = fl.Bool("compare", false, "compare two result sets: -compare A.json B.json")
	)
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fl.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result files")
			return 2
		}
		regressed, err := compareFiles(stdout, fl.Arg(0), fl.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		if regressed {
			return 1
		}
		return 0
	}
	if fl.NArg() != 0 || *seconds <= 0 || (*sc != string(scaleFull) && *sc != string(scaleTiny)) {
		fmt.Fprintln(stderr, "benchmark: bad arguments")
		fl.Usage()
		return 2
	}
	selected := workloads
	if *name != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == *name {
				selected = []workload{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
	}
	if *jsonOut == "" {
		*jsonOut = filepath.Join(*outDir, "results.json")
	}
	o := options{seed: *seed, seconds: *seconds, trace: *traceOn != 0, scale: scale(*sc), outDir: *outDir}
	correct, err := runAll(selected, o, *jsonOut, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if !correct {
		return 1
	}
	return 0
}

// runAll runs the workloads one after another in this process. Each
// prints its table and then its result line, so the last line of standard
// output is always the result of the last workload run.
func runAll(selected []workload, o options, jsonOut string, stdout io.Writer) (correct bool, err error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return false, err
	}
	// Journals and spill segments live under the output directory: a run
	// writes only inside its checkout.
	scratch, err := os.MkdirTemp(o.outDir, "scratch-")
	if err != nil {
		return false, err
	}
	defer func() { err = errors.Join(err, os.RemoveAll(scratch)) }()
	o.env = collectEnv(scratch)

	correct = true
	for _, w := range selected {
		rec, err := runWorkload(w, o, scratch)
		if err != nil {
			return false, err
		}
		if err := appendResult(jsonOut, rec); err != nil {
			return false, err
		}
		rec.printTable(stdout)
		line, err := rec.resultLine()
		if err != nil {
			return false, err
		}
		fmt.Fprintf(stdout, "%s\n", line)
		correct = correct && rec.Correct
	}
	return correct, nil
}
