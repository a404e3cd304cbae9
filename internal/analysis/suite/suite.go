// Package suite enumerates the predata-vet analyzers in their canonical
// order. It exists so the driver and tests share one registry.
package suite

import (
	"predata/internal/analysis"
	"predata/internal/analysis/collectivecheck"
	"predata/internal/analysis/ctxdeadline"
	"predata/internal/analysis/goroutineleak"
	"predata/internal/analysis/lockhold"
	"predata/internal/analysis/mustrelease"
	"predata/internal/analysis/typederr"
)

// Analyzers returns the full predata-vet suite.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		collectivecheck.Analyzer,
		ctxdeadline.Analyzer,
		goroutineleak.Analyzer,
		lockhold.Analyzer,
		mustrelease.Analyzer,
		typederr.Analyzer,
	}
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *analysis.Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
