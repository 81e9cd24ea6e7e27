package mcheck

import (
	"context"
	"runtime"
	"testing"
	"time"

	"heterogen/internal/memmodel"
	"heterogen/internal/protocols"
)

// waitGoroutines polls until the goroutine count settles back to at most
// base (plus a small slack for runtime housekeeping), failing the test if
// it never does — the search must leave no worker, ticker or watcher
// goroutine behind after a cancellation.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak after cancelled search: %d running, started with %d\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// cancelOptions builds options that cancel the context once the search
// has visited more than threshold states, reported at a tight cadence so
// the cancellation lands mid-flight.
func cancelOptions(cancel context.CancelFunc, threshold int) Options {
	return Options{
		POR:           POROff,
		ProgressEvery: time.Millisecond,
		OnProgress: func(p Progress) {
			if p.Visited > threshold {
				cancel()
			}
		},
	}
}

// iriwReaders is IRIW whose writers also read the other location: 32,899
// states, enough that a cancellation reported at a 1 ms cadence lands
// mid-search at every worker count (plain IRIW's 6,344 states can finish
// first).
func iriwReaders() *memmodel.Program {
	return memmodel.NewProgram(
		[]*memmodel.Op{memmodel.St("x", 1), memmodel.Ld("y")},
		[]*memmodel.Op{memmodel.St("y", 1), memmodel.Ld("x")},
		[]*memmodel.Op{memmodel.Ld("x"), memmodel.Ld("y")},
		[]*memmodel.Op{memmodel.Ld("y"), memmodel.Ld("x")},
	)
}

// TestCancelPartialResult drives a mid-search cancellation at both worker
// counts and checks the three contract points: the result is flagged
// partial, no goroutine leaks, and a fresh rerun
// of the same configuration still produces the full, unchanged result.
func TestCancelPartialResult(t *testing.T) {
	control := exploreWith(t, iriwReaders(), 1, Options{POR: POROff})
	if control.Cancelled || !control.Ok() {
		t.Fatalf("control run not clean: %s", control)
	}

	for _, workers := range []int{1, 4} {
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		opts := cancelOptions(cancel, control.States/10)
		opts.Workers = workers
		res := exploreProgramCtx(t, ctx, iriwReaders(), opts)
		cancel()

		if !res.Cancelled {
			t.Fatalf("workers=%d: expected Cancelled, got %s", workers, res)
		}
		if res.Ok() {
			t.Fatalf("workers=%d: cancelled result must not report Ok", workers)
		}
		if res.States == 0 || res.States >= control.States {
			t.Fatalf("workers=%d: partial state count %d out of range (full space %d)",
				workers, res.States, control.States)
		}
		waitGoroutines(t, base)

		// Rerun without cancellation: the partial run must not have
		// perturbed anything — the full result still comes out whole.
		rerun := exploreWith(t, iriwReaders(), workers, Options{POR: POROff})
		if rerun.Cancelled || rerun.States != control.States || rerun.Deadlocks != control.Deadlocks {
			t.Fatalf("workers=%d: rerun after cancel diverged: got %s, control %s", workers, rerun, control)
		}
		if got, want := rerun.Outcomes.Keys(), control.Outcomes.Keys(); !equalStrings(got, want) {
			t.Fatalf("workers=%d: rerun outcomes diverged:\n got %v\nwant %v", workers, got, want)
		}
	}
}

// TestCancelBeforeStart: a context cancelled before the search starts
// still returns a well-formed (near-empty) partial result.
func TestCancelBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		res := exploreProgramCtx(t, ctx, iriw(), Options{POR: POROff, Workers: workers})
		if !res.Cancelled {
			t.Fatalf("workers=%d: expected Cancelled on a pre-cancelled context, got %s", workers, res)
		}
		if res.States > 2 {
			t.Fatalf("workers=%d: pre-cancelled search expanded %d states", workers, res.States)
		}
	}
}

// TestExploreWithoutContextUnchanged pins that the plain Explore path —
// no context — never reports Cancelled.
func TestExploreWithoutContextUnchanged(t *testing.T) {
	res := exploreWith(t, mpPlain(), 1, Options{})
	if res.Cancelled {
		t.Fatalf("Explore without a context reported Cancelled: %s", res)
	}
}

// exploreProgramCtx is exploreWith for program p under a context.
func exploreProgramCtx(t *testing.T, ctx context.Context, p *memmodel.Program, opts Options) *Result {
	t.Helper()
	pr := protocols.MustByName(protocols.NameMSI)
	progs, keys := reqsFor(p)
	sys := NewHomogeneous(pr, len(p.Threads))
	sys.SetPrograms(progs)
	opts.LoadKeys = keys
	return ExploreCtx(ctx, sys, opts)
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
