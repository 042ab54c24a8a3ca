package noalloc_test

import (
	"testing"

	"pthammer/internal/analysis/analyzertest"
	"pthammer/internal/analysis/noalloc"
)

func TestNoAlloc(t *testing.T) {
	analyzertest.Run(t, noalloc.Analyzer, "testdata",
		"lint.test/hotdep",
		"lint.test/hot",
		"lint.test/internal/bench",
	)
}
