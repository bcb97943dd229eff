package main

import (
	"bytes"
	"os"
	"testing"
)

// TestGolden pins the study's whole output, table and reading, to the
// recorded run in testdata/kvdesign.golden.
func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("eight 200k-put ingests take seconds; skipped in -short")
	}
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/kvdesign.golden")
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Errorf("kvdesign output:\n got %q\nwant %q", out.String(), want)
	}
}
