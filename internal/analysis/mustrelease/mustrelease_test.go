package mustrelease_test

import (
	"testing"

	"predata/internal/analysis/analysistest"
	"predata/internal/analysis/mustrelease"
)

// TestMustRelease runs the pass over one fixture package per row.
func TestMustRelease(t *testing.T) {
	for _, fixture := range []string{"chunk", "lease", "journal", "span"} {
		t.Run(fixture, func(t *testing.T) {
			analysistest.Run(t, mustrelease.Analyzer, "testdata/src/"+fixture)
		})
	}
}
