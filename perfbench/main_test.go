package main

import (
	"bytes"
	"context"
	"testing"
)

// TestFlippedOutputByteCountsAsFailure runs one kv-mix pass and shows that
// a single flipped byte — in one cell's output or in the suite's CSV — is
// booked as failed cells, while the untouched outputs pass.
func TestFlippedOutputByteCountsAsFailure(t *testing.T) {
	ctx := context.Background()
	w := workloadByName("kv-mix")
	inst, err := w.build(defaultSeed, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{w: w, seed: defaultSeed, workers: 1, inst: inst}
	p := b.runPass(ctx, 1)
	if b.failed != 0 {
		t.Fatalf("clean pass booked %d failed cells: %v", b.failed, b.notes)
	}

	again := runPass(ctx, inst, 1)
	b.book(again)
	if b.failed != 0 {
		t.Fatalf("identical second pass booked %d failed cells: %v", b.failed, b.notes)
	}

	out := render(again.results[0][1])
	out[len(out)/2] ^= 1
	again.digests[1] = digest(out)
	b.book(again)
	if b.failed != 1 {
		t.Fatalf("one flipped output byte booked %d failed cells, want 1", b.failed)
	}

	text, err := inst.verify(ctx, 1, p.results)
	if err != nil {
		t.Fatal(err)
	}
	b.failed = 0
	b.checkSuite(text, p.attempted)
	if b.failed != 0 {
		t.Fatalf("pinned suite output rejected: %v", b.notes)
	}
	flipped := bytes.Clone(text)
	flipped[len(flipped)/2] ^= 1
	b.checkSuite(flipped, p.attempted)
	if b.failed != p.attempted {
		t.Fatalf("flipped suite byte booked %d failed cells, want %d", b.failed, p.attempted)
	}
}
