package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
)

// cell is one value of a row. key names it in the JSON document ("" =
// table only); col and verb are its table column header and fmt verb
// ("" = JSON only).
type cell struct {
	key  string
	val  any
	col  string
	verb string
}

// row is an ordered list of cells: one leg's results, or an experiment's
// parameters. The printed table and the JSON object are two renderings
// of it.
type row []cell

// get returns the value emitted under key, nil when the row has none.
func (r row) get(key string) any {
	for _, c := range r {
		if c.key == key {
			return c.val
		}
	}
	return nil
}

// MarshalJSON renders the keyed cells as one object, in row order.
func (r row) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte('{')
	for _, c := range r {
		if c.key == "" {
			continue
		}
		v, err := json.Marshal(c.val)
		if err != nil {
			return nil, fmt.Errorf("bench: row key %q: %w", c.key, err)
		}
		if b.Len() > 1 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Quote(c.key))
		b.WriteByte(':')
		b.Write(v)
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}

// String is the row as compact JSON, for gate error messages.
func (r row) String() string {
	b, err := r.MarshalJSON()
	if err != nil {
		return err.Error()
	}
	return string(b)
}

// section is one experiment's part of the JSON document.
type section struct {
	Experiment string `json:"experiment"`
	Params     row    `json:"params"`
	Runs       []row  `json:"runs"`
}

// document is the one JSON shape predata-bench writes, whatever was
// selected: the seed and one section per experiment that produced rows.
type document struct {
	Seed        int64     `json:"seed"`
	Experiments []section `json:"experiments"`
}

// Report is what one predata-bench invocation prints to and emits:
// experiments print their tables as they go and add one section each to
// the document Emit writes at the end.
type Report struct {
	w    io.Writer
	seed int64
	doc  document
}

// NewReport starts a report printing to w. The fault seed every plan is
// parsed with comes from the PREDATA_FAULT_SEED environment variable when
// set (the CI chaos-soak lane sweeps it) and is 1 otherwise; a value that
// does not parse is an error, not seed 1.
func NewReport(w io.Writer) (*Report, error) {
	seed := int64(1)
	if s := os.Getenv("PREDATA_FAULT_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bench: PREDATA_FAULT_SEED: %w", err)
		}
		seed = v
	}
	return &Report{w: w, seed: seed, doc: document{Seed: seed, Experiments: []section{}}}, nil
}

// header prints a section banner.
func (r *Report) header(title string) {
	fmt.Fprintf(r.w, "\n=== %s ===\n", title)
}

// seeded prints the banner of an experiment that consumes the fault seed.
func (r *Report) seeded(title string) {
	r.header(fmt.Sprintf("%s (seed %d)", title, r.seed))
}

func (r *Report) printf(format string, args ...any) {
	fmt.Fprintf(r.w, format, args...)
}

// section prints runs as a table — one column per cell that names one —
// and adds them with the experiment's parameters to the document.
func (r *Report) section(experiment string, params row, runs []row) {
	tw := tabwriter.NewWriter(r.w, 0, 0, 2, ' ', 0)
	for i, run := range runs {
		var head, line []string
		for _, c := range run {
			if c.col != "" {
				head = append(head, c.col)
				line = append(line, fmt.Sprintf(c.verb, c.val))
			}
		}
		if i == 0 {
			fmt.Fprintln(tw, strings.Join(head, "\t"))
		}
		fmt.Fprintln(tw, strings.Join(line, "\t"))
	}
	tw.Flush()
	r.doc.Experiments = append(r.doc.Experiments, section{Experiment: experiment, Params: params, Runs: runs})
}

// Emit writes the document to path; with an empty path nothing is
// written anywhere.
func (r *Report) Emit(path string) error {
	if path == "" {
		return nil
	}
	doc, err := json.MarshalIndent(r.doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(doc, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: write json: %w", err)
	}
	r.printf("\n%d experiment section(s) written to %s\n", len(r.doc.Experiments), path)
	return nil
}

// Experiment is one entry of the evaluation registry.
type Experiment struct {
	Name string
	Run  func(*Report) error
}

// Experiments is the evaluation in the order `-experiment all` runs it;
// op selects fig7's operator (sort|hist|hist2d|all).
func Experiments(op string) []Experiment {
	return []Experiment{
		{"fig7", func(r *Report) error { return fig7(r, op) }},
		{"fig8", fig8},
		{"fig9", fig9},
		{"fig10", fig10},
		{"fig11", fig11},
		{"offline", offline},
		{"des", desCrossCheck},
		{"chaos", chaos},
		{"overload", overload},
		{"trace", traceOverhead},
		{"elastic", elasticity},
		{"adversary", adversary},
		{"restart", restart},
		{"serve", serving},
		{"ablations", ablations},
	}
}
