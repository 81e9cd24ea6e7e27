package litmus

import (
	"testing"

	"heterogen/internal/core"
	"heterogen/internal/mcheck"
	"heterogen/internal/protocols"
	"heterogen/internal/spec"
)

// TestRunSuiteParallelMatchesSequential runs the same suite sequentially
// and over the worker pool: the reports must agree test-by-test (state
// counts, verdicts) and arrive in the same order.
func TestRunSuiteParallelMatchesSequential(t *testing.T) {
	pairs := [][]*spec.Protocol{
		{protocols.MustByName(protocols.NameMESI), protocols.MustByName(protocols.NameRCCO)},
	}
	// POR pinned off: this test's purpose is the suite worker pool's
	// count agreement over the full unreduced space.
	seq, err := RunSuite(pairs, Options{MaxThreads: 2, Workers: 1, Fusion: core.Options{}, Explore: mcheck.Options{POR: mcheck.POROff}})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunSuite(pairs, Options{MaxThreads: 2, Workers: 4, Fusion: core.Options{}, Explore: mcheck.Options{POR: mcheck.POROff}})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Results) != len(par.Results) {
		t.Fatalf("parallel suite ran %d tests, sequential %d", len(par.Results), len(seq.Results))
	}
	for i, s := range seq.Results {
		p := par.Results[i]
		if s.Shape != p.Shape || s.Pair != p.Pair {
			t.Fatalf("test %d out of order: sequential %s/%s, parallel %s/%s", i, s.Shape, s.Pair, p.Shape, p.Pair)
		}
		if s.States != p.States || s.Pass() != p.Pass() || s.Outcomes != p.Outcomes {
			t.Errorf("test %d (%s %s alloc=%v) diverged: seq states=%d pass=%t, par states=%d pass=%t",
				i, s.Shape, s.Pair, s.Assign, s.States, s.Pass(), p.States, p.Pass())
		}
		if p.Elapsed <= 0 {
			t.Errorf("test %d: missing per-test timing", i)
		}
	}
}

// TestRunFusedParallelExplore drives one test with a parallel state-space
// search (ExploreWorkers > 1) and checks it against the sequential run.
func TestRunFusedParallelExplore(t *testing.T) {
	f, err := core.Fuse(core.Options{},
		protocols.MustByName(protocols.NameMSI), protocols.MustByName(protocols.NameTSOCC))
	if err != nil {
		t.Fatal(err)
	}
	shape, ok := ShapeByName("MP")
	if !ok {
		t.Fatal("MP shape missing")
	}
	seq := RunFused(f, shape, []int{0, 1}, Options{ExploreWorkers: 1, Explore: mcheck.Options{POR: mcheck.POROff}})
	par := RunFused(f, shape, []int{0, 1}, Options{ExploreWorkers: 8, Explore: mcheck.Options{POR: mcheck.POROff}})
	if seq.States != par.States || seq.Pass() != par.Pass() || seq.Outcomes != par.Outcomes {
		t.Fatalf("parallel explore diverged: seq states=%d outcomes=%d pass=%t, par states=%d outcomes=%d pass=%t",
			seq.States, seq.Outcomes, seq.Pass(), par.States, par.Outcomes, par.Pass())
	}
}
