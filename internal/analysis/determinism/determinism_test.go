package determinism_test

import (
	"testing"

	"pthammer/internal/analysis/analyzertest"
	"pthammer/internal/analysis/determinism"
)

func TestDeterminism(t *testing.T) {
	analyzertest.Run(t, determinism.Analyzer, "testdata",
		"lint.test/cmd/tool",
		"lint.test/internal/bench",
		"lint.test/internal/cohort",
		"lint.test/internal/core",
		"lint.test/internal/fault",
		"lint.test/internal/sweep",
		"lint.test/plain",
	)
}
