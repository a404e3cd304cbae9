package typederr_test

import (
	"testing"

	"predata/internal/analysis/analysistest"
	"predata/internal/analysis/typederr"
)

func TestTypederr(t *testing.T) {
	analysistest.Run(t, typederr.Analyzer, "testdata/src/a")
}
