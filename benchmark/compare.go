package main

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
)

// Verdicts of a comparison row.
const (
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// runValues collects one metric's value from every untraced run of a
// workload in a result set (per-layer rows come from the traced runs). A
// set holding a single run falls back to that run's own repetitions, so
// one invocation can still be compared with another.
func runValues(rf *resultFile, workload, metric string, traced bool) []float64 {
	var vals []float64
	var last measurement
	for _, r := range rf.Runs {
		if r.Workload != workload || r.Traced != traced {
			continue
		}
		if m, ok := r.find(metric); ok {
			vals = append(vals, m.Value)
			last = m
		}
	}
	if len(vals) == 1 && len(last.Samples) > 1 {
		return last.Samples
	}
	return vals
}

// verdict judges B against A for one metric. worse is B's median moving
// the wrong way as a share of A's median. A spread wider than the bound
// cannot resolve a change of the bound's size, unless every value of one
// side beats every value of the other.
func verdict(a, b []float64, spec metricSpec) (string, float64) {
	medA, medB := median(a), median(b)
	sign := 1.0
	if spec.Better == "higher" {
		sign = -1
	}
	worse := sign * ratio(medB-medA, math.Abs(medA))
	noise := math.Max(spread(a), spread(b))
	allBetter, allWorse := true, true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
			if sign*(y-x) <= 0 {
				allWorse = false
			}
		}
	}
	bounded := spec.Bound > 0
	tooNoisy := bounded && noise > spec.Bound
	beyond := bounded && worse > spec.Bound
	switch {
	case tooNoisy && allBetter:
		return verdictImproved, worse
	case tooNoisy && !(allWorse && beyond):
		return verdictUnresolved, worse
	case beyond:
		return verdictRegressed, worse
	case -worse > noise && allBetter:
		return verdictImproved, worse
	}
	return verdictUnchanged, worse
}

// compareFiles prints one row per (workload, metric): both medians with
// their quartiles, the change with its base, the bound and the verdict.
// Per-layer rows carry no bound; their verdict only says whether the
// medians moved by more than the sets' own spread. It reports whether any
// end-to-end metric regressed.
func compareFiles(out io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := loadResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "A = %s\nB = %s\nchange = (median B - median A) / median A; spread = (q3 - q1) / median within one set\n", pathA, pathB)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3] n\tB median [q1, q3] n\tchange vs A\tbound\tverdict")
	for _, w := range workloads {
		for _, group := range []struct {
			specs  []metricSpec
			traced bool
		}{{endToEnd, false}, {perLayer, true}, {ledgerOnly, true}} {
			for _, spec := range group.specs {
				va := runValues(a, w.name, spec.Name, group.traced)
				vb := runValues(b, w.name, spec.Name, group.traced)
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				v, worse := verdict(va, vb, spec)
				change := worse
				if spec.Better == "higher" {
					change = -worse
				}
				bound := "-"
				if spec.Bound > 0 {
					bound = fmt.Sprintf("%.0f%%", spec.Bound*100)
					regressed = regressed || v == verdictRegressed
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.1f%%\t%s\t%s\n",
					w.name, spec.Name, spec.Unit, summary(va), summary(vb), change*100, bound, v)
			}
		}
	}
	return regressed, tw.Flush()
}

func summary(xs []float64) string {
	q1, med, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g] %d", med, q1, q3, len(xs))
}
