package bench

import (
	"fmt"
	"io"
)

// Report is what one predata-bench invocation prints to: experiments
// print their tables as they go.
type Report struct {
	w io.Writer
}

// NewReport starts a report printing to w.
func NewReport(w io.Writer) *Report {
	return &Report{w: w}
}

// header prints a section banner.
func (r *Report) header(title string) {
	fmt.Fprintf(r.w, "\n=== %s ===\n", title)
}

func (r *Report) printf(format string, args ...any) {
	fmt.Fprintf(r.w, format, args...)
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
		{"ablations", ablations},
	}
}
