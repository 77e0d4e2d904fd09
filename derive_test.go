package repro

import (
	"context"
	"errors"
	"testing"
)

// TestSessionDerive pins the server-facing contract of Derive: the derived
// session shares the memoized materialization (no re-materialization), its
// options compose on top of the base configuration, invalid options are
// ErrBadOptions, and base and derived sessions return identical answers.
func TestSessionDerive(t *testing.T) {
	gs, m, queries := sessionTestWorkload(t)
	s := newTestSession(t, gs, m, WithChunkSize(64))
	ctx := context.Background()

	// Materialize through the base session first.
	baseAns, err := s.CertainNull(ctx, queries[0])
	if err != nil {
		t.Fatal(err)
	}

	d, err := s.Derive(WithWorkers(2), WithChunkSize(8))
	if err != nil {
		t.Fatal(err)
	}
	// Sharing the materialization pointer is the whole point: deriving must
	// not pay for the solutions again.
	if d.mat != s.mat {
		t.Fatal("derived session does not share the base materialization")
	}
	if d.cm != s.cm || d.gs != s.gs {
		t.Fatal("derived session does not share the compiled mapping / source graph")
	}
	// Options compose: overridden fields change, inherited fields persist.
	if d.cfg.workers != 2 || d.cfg.chunkSize != 8 {
		t.Fatalf("derived cfg = %+v, want workers 2 chunk 8", d.cfg)
	}
	if s.cfg.workers != 0 || s.cfg.chunkSize != 64 {
		t.Fatalf("base cfg mutated by Derive: %+v", s.cfg)
	}

	for i, q := range queries {
		want, err := s.CertainNull(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.CertainNull(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("query %d: derived answers diverge from base", i)
		}
	}
	// And the pre-derivation answers are still what the base returns.
	again, err := s.CertainNull(ctx, queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if !again.Equal(baseAns) {
		t.Fatal("base session answers changed after Derive")
	}

	// Invalid options surface as ErrBadOptions and leave nothing derived.
	if _, err := s.Derive(WithChunkSize(-5)); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("Derive(bad option) error = %v, want ErrBadOptions", err)
	}

	// Deriving from a derived session composes again.
	d2, err := d.Derive(WithChunkSize(16))
	if err != nil {
		t.Fatal(err)
	}
	if d2.mat != s.mat || d2.cfg.workers != 2 || d2.cfg.chunkSize != 16 {
		t.Fatalf("second-level derive: mat shared %v cfg %+v", d2.mat == s.mat, d2.cfg)
	}
}
