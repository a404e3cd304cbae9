// Command bp-tool inspects and queries BP files — the "subsequent data
// access" side of the PreDatA story: once the staging area has sorted,
// merged, or summarized the data into BP files, downstream tools browse
// and query them without the producing job.
//
// Subcommands:
//
//	bp-tool gen -o demo.bp [-writers 8] [-particles 20000]
//	    run a mini PreDatA pipeline (sort operator) and save the sorted
//	    particle file to the OS path.
//	bp-tool ls -f demo.bp
//	    list the file's variables, timesteps, chunk counts and dims.
//	bp-tool read -f demo.bp -var electrons_sorted -step 0
//	    read a variable and print summary statistics.
//	bp-tool query -f demo.bp -var p_sorted -step 0 -col 0 -lo 0.2 -hi 0.4
//	    build a WAH bitmap index over one column of a [N,K] variable and
//	    run a range query, reporting hit count and index/scan timing.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"time"

	"predata/internal/apps/gtc"
	"predata/internal/bitmap"
	"predata/internal/bp"
	"predata/internal/ffs"
	"predata/internal/mpi"
	"predata/internal/ops"
	"predata/internal/pfs"
	"predata/internal/predata"
	"predata/internal/staging"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: bp-tool gen|ls|read|query [flags]")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Stdout, os.Args[2:])
	case "ls":
		err = cmdLs(os.Stdout, os.Args[2:])
	case "read":
		err = cmdRead(os.Stdout, os.Args[2:])
	case "query":
		err = cmdQuery(os.Stdout, os.Args[2:])
	default:
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bp-tool:", err)
		os.Exit(1)
	}
}

// newFS builds the simulated file system the tool stages files through.
func newFS() (*pfs.FileSystem, error) {
	return pfs.New(pfs.Config{
		NumOSTs: 16, OSTBandwidth: 500e6, StripeSize: 1 << 20,
		OpLatency: 5 * time.Millisecond, Seed: 1,
	})
}

// load imports an OS file into a fresh simulated FS and opens it.
func load(osPath string) (*bp.Reader, error) {
	fs, err := newFS()
	if err != nil {
		return nil, err
	}
	if err := fs.ImportFromOS("in.bp", osPath, 8); err != nil {
		return nil, err
	}
	return bp.OpenReader(fs, "in.bp")
}

func cmdGen(w io.Writer, args []string) error {
	fl := flag.NewFlagSet("gen", flag.ContinueOnError)
	out := fl.String("o", "demo.bp", "output OS path")
	writers := fl.Int("writers", 8, "compute writers")
	particles := fl.Int("particles", 20000, "particles per writer")
	if err := fl.Parse(args); err != nil {
		return err
	}
	fs, err := newFS()
	if err != nil {
		return err
	}
	bw, err := bp.CreateWriter(fs, "sorted.bp", 8)
	if err != nil {
		return err
	}
	cfg := predata.PipelineConfig{
		NumCompute:       *writers,
		NumStaging:       max(1, *writers/4),
		Dumps:            1,
		PartialCalculate: ops.MinMaxPartial("p", []int{gtc.AttrZeta, gtc.AttrRank}),
		Aggregate:        ops.MinMaxAggregate(),
	}
	_, err = predata.RunPipeline(cfg,
		func(comm *mpi.Comm, client *predata.Client) error {
			arr := gtc.GenParticles(comm.Rank(), *particles, 0)
			_, err := client.Write(gtc.ParticleSchema, ffs.Record{"p": arr}, 0)
			return err
		},
		func(dump int) []staging.Operator {
			op, err := ops.NewSortOperator(ops.SortConfig{
				Var: "p", KeyMajor: gtc.AttrRank, KeyMinor: gtc.AttrLocalID, AggFromColumn: true, Output: bw,
			})
			if err != nil {
				return nil
			}
			return []staging.Operator{op}
		})
	if err != nil {
		return err
	}
	if _, err := bw.Close(); err != nil {
		return err
	}
	if err := fs.ExportToOS("sorted.bp", *out); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s: %d writers x %d particles, sorted by label through the staging pipeline\n",
		*out, *writers, *particles)
	return nil
}

func cmdLs(w io.Writer, args []string) error {
	fl := flag.NewFlagSet("ls", flag.ContinueOnError)
	file := fl.String("f", "", "BP file path")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if *file == "" {
		return fmt.Errorf("ls: -f required")
	}
	r, err := load(*file)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-32s %6s %8s %s\n", "variable", "step", "chunks", "dims")
	for _, vi := range r.Vars() {
		fmt.Fprintf(w, "%-32s %6d %8d %v\n", vi.Name, vi.Timestep, vi.Chunks, vi.Global)
	}
	if attrs := r.Attributes(); len(attrs) > 0 {
		fmt.Fprintln(w, "attributes:")
		for name, a := range attrs {
			if a.IsString {
				fmt.Fprintf(w, "  %s = %q\n", name, a.String)
			} else {
				fmt.Fprintf(w, "  %s = %g\n", name, a.Float)
			}
		}
	}
	return nil
}

func cmdRead(w io.Writer, args []string) error {
	fl := flag.NewFlagSet("read", flag.ContinueOnError)
	file := fl.String("f", "", "BP file path")
	name := fl.String("var", "", "variable name")
	step := fl.Int64("step", 0, "timestep")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if *file == "" || *name == "" {
		return fmt.Errorf("read: -f and -var required")
	}
	r, err := load(*file)
	if err != nil {
		return err
	}
	data, dims, modeled, err := r.ReadVar(*name, *step)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s step %d: dims %v, %d values, modeled read %v\n",
		*name, *step, dims, len(data), modeled.Round(time.Millisecond))
	fmt.Fprintf(w, "stats: %s\n", summarize(data))
	return nil
}

// summarize renders the count, minimum, mean, 95th percentile (linear
// interpolation between order statistics), maximum and population
// standard deviation of xs on one line; every statistic of no values is 0.
func summarize(xs []float64) string {
	var lo, mean, p95, hi, m2 float64
	if n := len(xs); n > 0 {
		s := slices.Clone(xs)
		slices.Sort(s)
		// Welford's online algorithm: numerically stable and immune to the
		// sum-of-squares overflow the naive formula hits on large samples.
		for i, x := range s {
			delta := x - mean
			mean += delta / float64(i+1)
			m2 += delta * (x - mean)
		}
		m2 /= float64(n)
		pos := 0.95 * float64(n-1)
		i, j := int(math.Floor(pos)), int(math.Ceil(pos))
		p95 = s[i]
		if i != j {
			f := pos - float64(i)
			p95 = s[i]*(1-f) + s[j]*f
		}
		lo, hi = s[0], s[n-1]
	}
	return fmt.Sprintf("n=%d min=%.4g mean=%.4g p95=%.4g max=%.4g sd=%.4g",
		len(xs), lo, mean, p95, hi, math.Sqrt(max(m2, 0)))
}

func cmdQuery(w io.Writer, args []string) error {
	fl := flag.NewFlagSet("query", flag.ContinueOnError)
	file := fl.String("f", "", "BP file path")
	name := fl.String("var", "", "2D variable name ([N,K] rows)")
	step := fl.Int64("step", 0, "timestep")
	col := fl.Int("col", 0, "attribute column to query")
	lo := fl.Float64("lo", 0, "range lower bound (inclusive)")
	hi := fl.Float64("hi", 1, "range upper bound (exclusive)")
	bins := fl.Int("bins", 64, "index bins")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if *file == "" || *name == "" {
		return fmt.Errorf("query: -f and -var required")
	}
	r, err := load(*file)
	if err != nil {
		return err
	}
	data, dims, _, err := r.ReadVar(*name, *step)
	if err != nil {
		return err
	}
	if len(dims) != 2 {
		return fmt.Errorf("query: variable %s has rank %d, want 2", *name, len(dims))
	}
	rows, k := int(dims[0]), int(dims[1])
	if *col < 0 || *col >= k {
		return fmt.Errorf("query: column %d outside [0,%d)", *col, k)
	}
	column := make([]float64, rows)
	vmin, vmax := column[0], column[0]
	for i := 0; i < rows; i++ {
		column[i] = data[i*k+*col]
		if i == 0 || column[i] < vmin {
			vmin = column[i]
		}
		if i == 0 || column[i] > vmax {
			vmax = column[i]
		}
	}
	if vmax <= vmin {
		vmax = vmin + 1
	}
	start := time.Now()
	ix, err := bitmap.BuildIndex(column, *bins, [2]float64{vmin, vmax})
	if err != nil {
		return err
	}
	buildT := time.Since(start)
	start = time.Now()
	hits, err := ix.Query(column, bitmap.RangeQuery{Lo: *lo, Hi: *hi})
	if err != nil {
		return err
	}
	queryT := time.Since(start)
	start = time.Now()
	scanHits := 0
	for _, v := range column {
		if v >= *lo && v < *hi {
			scanHits++
		}
	}
	scanT := time.Since(start)
	if len(hits) != scanHits {
		return fmt.Errorf("query: index returned %d hits, scan %d — index bug", len(hits), scanHits)
	}
	fmt.Fprintf(w, "query col %d in [%g,%g): %d of %d rows (%.2f%%)\n",
		*col, *lo, *hi, len(hits), rows, 100*float64(len(hits))/float64(rows))
	fmt.Fprintf(w, "index: build %v (%d words), query %v; full scan %v\n",
		buildT, ix.CompressedWords(), queryT, scanT)
	return nil
}
