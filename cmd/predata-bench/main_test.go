package main

import (
	"bytes"
	"strings"
	"testing"

	"predata/internal/bench"
)

// stubs is the real registry's names, in order, over entries that only
// record that they ran: the command's job is selection and order, and
// the experiments themselves run once, in internal/bench's tests.
func stubs(ran *[]string) []bench.Experiment {
	var registry []bench.Experiment
	for _, e := range bench.Experiments("all") {
		name := e.Name
		registry = append(registry, bench.Experiment{Name: name, Run: func(*bench.Report) error {
			*ran = append(*ran, name)
			return nil
		}})
	}
	return registry
}

func TestRunEachExperiment(t *testing.T) {
	for _, e := range bench.Experiments("all") {
		t.Run(e.Name, func(t *testing.T) {
			var ran []string
			if err := run(&bytes.Buffer{}, stubs(&ran), e.Name); err != nil {
				t.Fatal(err)
			}
			if len(ran) != 1 || ran[0] != e.Name {
				t.Errorf("-experiment %s ran %v", e.Name, ran)
			}
		})
	}
}

func TestRunAll(t *testing.T) {
	var ran, want []string
	registry := stubs(&ran)
	for _, e := range registry {
		want = append(want, e.Name)
	}
	if err := run(&bytes.Buffer{}, registry, "all"); err != nil {
		t.Fatal(err)
	}
	if strings.Join(ran, " ") != strings.Join(want, " ") {
		t.Errorf("all ran %v, want the registry in order %v", ran, want)
	}
}

// TestRunUnknownExperiment: a name outside the registry is an error —
// a typo, or a soak scenario such as chaos, which is a go test
// (EXPERIMENTS.md), not an experiment.
func TestRunUnknownExperiment(t *testing.T) {
	for _, name := range []string{"fig99", "chaos"} {
		if err := run(&bytes.Buffer{}, bench.Experiments("all"), name); err == nil {
			t.Errorf("unknown experiment %q accepted", name)
		}
	}
}

func TestRunBadFig7Op(t *testing.T) {
	if err := run(&bytes.Buffer{}, bench.Experiments("nonsense"), "fig7"); err == nil {
		t.Fatal("unknown fig7 operator accepted")
	}
}
