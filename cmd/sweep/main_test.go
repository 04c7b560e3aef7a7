package main

import (
	"errors"
	"testing"
)

// failWriter fails every write, like a full disk or a closed pipe.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("write failed") }

// TestRunGridReportsWriteError runs a one-point document whose whole
// NDJSON output fits in the write buffer, so the failure surfaces only
// when the buffer is flushed. runGrid must return it: a sweep that lost
// its output must not exit 0.
func TestRunGridReportsWriteError(t *testing.T) {
	jobs = 1
	if err := runGrid("../../experiments/dma-copy.json", nil, 0, "", failWriter{}); err == nil {
		t.Fatal("runGrid returned nil although every write failed")
	}
}
