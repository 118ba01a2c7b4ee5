package lp

import (
	"context"
	"errors"
	"testing"

	"repro/internal/cancel"
)

// TestSolveCanceled: every solver's pivot loop polls its context — a
// pre-canceled context aborts the solve with the typed sentinel wrapping
// the context cause, before any pivoting completes.
func TestSolveCanceled(t *testing.T) {
	p := paperFig5Problem()
	ctx, cancelFn := context.WithCancel(context.Background())
	cancelFn()
	for _, s := range allSolvers {
		_, err := s.Solve(ctx, p)
		if err == nil {
			t.Fatalf("%s: canceled solve returned nil error", s.Name())
		}
		if !errors.Is(err, cancel.ErrCanceled) {
			t.Fatalf("%s: error does not match ErrCanceled: %v", s.Name(), err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: error does not wrap context.Canceled: %v", s.Name(), err)
		}
		var typed *cancel.Error
		if !errors.As(err, &typed) {
			t.Fatalf("%s: error is not a *cancel.Error: %v", s.Name(), err)
		}
	}
}

// TestRegistryRoundTrip: built-ins resolve by name (and by the empty
// default), unknowns fail with a listing. Rejected registrations —
// including MustRegister's panic contract — are covered by the table in
// TestRegisterRejections (registry_test.go).
func TestRegistryRoundTrip(t *testing.T) {
	for _, name := range []string{"dense", "bounded", "network", "revised", "dual-warm", ""} {
		s, err := Lookup(name)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if s == nil {
			t.Fatalf("%q: nil solver", name)
		}
	}
	def, err := Lookup("")
	if err != nil {
		t.Fatal(err)
	}
	if def.Name() != DefaultSolverName {
		t.Fatalf("default solver is %q, want %q", def.Name(), DefaultSolverName)
	}
	// The retired "revised" name is an alias of the default.
	if s, _ := Lookup("revised"); s.Name() != DefaultSolverName {
		t.Fatalf("revised resolves to %q, want the default %q", s.Name(), DefaultSolverName)
	}
	if _, err := Lookup("no-such-solver"); err == nil {
		t.Fatal("unknown name must error")
	}
}
