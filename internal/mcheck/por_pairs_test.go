package mcheck_test

// Agreement tests for the ample-set partial order reduction: on every
// fused Table II pair, the reduced search must report exactly the
// deadlock count and outcome set of the unreduced search — sequentially,
// in parallel and under hash compaction — while visiting fewer states.
// External package: building fused systems needs core.Fuse (core imports
// mcheck). The litmus-shape agreement (allowed/forbidden verdicts on
// MP/SB/IRIW) lives in internal/litmus/por_test.go.

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"heterogen/internal/core"
	"heterogen/internal/engine"
	"heterogen/internal/mcheck"
	"heterogen/internal/protocols"
	"heterogen/internal/spec"
)

// syncProg is the pair workload: every core stores the same value and
// loads it back, with a release/acquire pair to exercise the sync paths
// of the RC-flavored protocols.
var syncProg = []spec.CoreReq{
	{Op: spec.OpStore, Addr: 0, Value: 7},
	{Op: spec.OpLoad, Addr: 0},
	{Op: spec.OpRelease},
	{Op: spec.OpAcquire},
}

// pairSystem builds the pair fused at 2 caches per cluster with prog on
// all four cores.
func pairSystem(t *testing.T, a, b string, prog []spec.CoreReq) *mcheck.System {
	t.Helper()
	pa, err := protocols.ByName(a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := protocols.ByName(b)
	if err != nil {
		t.Fatal(err)
	}
	f, err := core.Fuse(core.Options{}, pa, pb)
	if err != nil {
		t.Fatalf("Fuse(%s,%s): %v", a, b, err)
	}
	sys, _ := core.BuildSystem(f, []int{2, 2})
	sys.SetPrograms([][]spec.CoreReq{prog, prog, prog, prog})
	return sys
}

// testWorkers is the worker count of the parallel runs: every core, and
// at least two so the shared frontier is exercised on a one-core host.
func testWorkers() int {
	if w := runtime.NumCPU(); w >= 2 {
		return w
	}
	return 4
}

// pairSearches memoizes the one-worker searches of the pair systems under
// syncProg. The POR matrix and the headline pins compare against the same
// unreduced and reduced searches; a one-worker search is deterministic,
// so each (pair, POR mode) search runs once per test binary and its
// result is shared read-only.
var pairSearches sync.Map // pairSearchKey → *pairSearch

type pairSearchKey struct {
	pair string
	por  mcheck.PORMode
}

type pairSearch struct {
	once sync.Once
	res  *mcheck.Result
}

// searchPair returns the one-worker search of the pair's syncProg system
// under the given POR mode, running it on first use.
func searchPair(t *testing.T, a, b string, por mcheck.PORMode) *mcheck.Result {
	t.Helper()
	v, _ := pairSearches.LoadOrStore(pairSearchKey{a + "+" + b, por}, &pairSearch{})
	ps := v.(*pairSearch)
	ps.once.Do(func() {
		ps.res = mcheck.Explore(pairSystem(t, a, b, syncProg), mcheck.Options{Workers: 1, POR: por})
	})
	if ps.res == nil {
		t.Fatalf("%s+%s: the shared search failed in an earlier test", a, b)
	}
	return ps.res
}

// outcomesOf renders the outcome set as a sorted newline-joined string for
// direct comparison.
func outcomesOf(r *mcheck.Result) string {
	keys := r.Outcomes.Keys()
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// assertSameVerdicts compares every checker verdict of a search against
// the reference.
func assertSameVerdicts(t *testing.T, label string, ref, got *mcheck.Result) {
	t.Helper()
	if got.Deadlocks != ref.Deadlocks {
		t.Errorf("%s: %d deadlocks, reference %d", label, got.Deadlocks, ref.Deadlocks)
	}
	if g, w := outcomesOf(got), outcomesOf(ref); g != w {
		t.Errorf("%s: outcome sets differ:\ngot:       %q\nreference: %q", label, g, w)
	}
	if len(got.Violations) != len(ref.Violations) {
		t.Errorf("%s: %d invariant violations, reference %d", label, len(got.Violations), len(ref.Violations))
	}
	if got.Ok() != ref.Ok() {
		t.Errorf("%s: Ok()=%t, reference Ok()=%t", label, got.Ok(), ref.Ok())
	}
}

// TestPORSoundTableIIPairs: on every fused Table II pair the reduced
// search must match the unreduced search's terminal-state verdicts
// exactly — deadlock count and outcome set — under every production
// configuration axis (workers, hash compaction), while actually
// shrinking the visited set. Because the ample choice is a pure function
// of the state, the reduced parallel search must also report exactly the
// reduced sequential counts.
func TestPORSoundTableIIPairs(t *testing.T) {
	workers := testWorkers()
	for _, pair := range core.TableIIPairs() {
		pair := pair
		t.Run(pair[0]+"+"+pair[1], func(t *testing.T) {
			t.Parallel()
			plain := searchPair(t, pair[0], pair[1], mcheck.POROff)
			seq := searchPair(t, pair[0], pair[1], mcheck.PORAuto)
			assertSameVerdicts(t, "por/seq", plain, seq)
			if seq.PORReduced == 0 {
				t.Errorf("reduction never engaged (%d states)", seq.States)
			}
			if seq.States >= plain.States {
				t.Errorf("por visited %d states, unreduced only %d", seq.States, plain.States)
			}
			configs := []struct {
				name string
				opts mcheck.Options
			}{
				{"par", mcheck.Options{Workers: workers}},
				{"hash/seq", mcheck.Options{Workers: 1, HashCompaction: true}},
				{"hash/par", mcheck.Options{Workers: workers, HashCompaction: true}},
			}
			for _, cfg := range configs {
				res := mcheck.Explore(pairSystem(t, pair[0], pair[1], syncProg), cfg.opts)
				assertSameVerdicts(t, "por/"+cfg.name, plain, res)
				if res.States != seq.States || res.Transitions != seq.Transitions {
					t.Errorf("por/%s visited %d states / %d transitions, por/seq %d / %d",
						cfg.name, res.States, res.Transitions, seq.States, seq.Transitions)
				}
			}
		})
	}
}

// TestPORHeadlineReduction pins the reduction counts of the headline
// fusion exactly: MESI & RCC-O at two caches per cluster under syncProg,
// one worker, with POR off and on. The README quotes these rows; a
// change to the reduction that moves a count fails here.
func TestPORHeadlineReduction(t *testing.T) {
	rows := []struct {
		name                       string
		por                        mcheck.PORMode
		states, transitions, ample int
	}{
		{"unreduced", mcheck.POROff, 165653, 548158, 0},
		{"por", mcheck.PORAuto, 22060, 42888, 5088},
	}
	for _, row := range rows {
		r := searchPair(t, "MESI", "RCC-O", row.por)
		if r.States != row.states || r.Transitions != row.transitions || r.PORReduced != row.ample ||
			r.Deadlocks != 0 || len(r.Outcomes) != 1 || r.Truncated {
			t.Errorf("%s: %d states, %d transitions, %d ample, %d deadlocks, %d outcomes, truncated %t; want %d, %d, %d, 0, 1, false",
				row.name, r.States, r.Transitions, r.PORReduced, r.Deadlocks, len(r.Outcomes), r.Truncated,
				row.states, row.transitions, row.ample)
		}
	}
}

// TestPORDisabledByInvariants: a search with invariants armed must fall
// back to the full space — the reduction only preserves terminal states.
func TestPORDisabledByInvariants(t *testing.T) {
	inv := []mcheck.Invariant{mcheck.SWMRInvariant("M")}
	full := mcheck.Explore(pairSystem(t, "MESI", "RCC-O", syncProg),
		mcheck.Options{Workers: 1, POR: mcheck.POROff, Invariants: inv})
	auto := mcheck.Explore(pairSystem(t, "MESI", "RCC-O", syncProg),
		mcheck.Options{Workers: 1, Invariants: inv})
	if auto.PORReduced != 0 {
		t.Errorf("POR engaged on %d states despite armed invariants", auto.PORReduced)
	}
	if auto.States != full.States || auto.Transitions != full.Transitions {
		t.Errorf("invariant search reduced: %d/%d states vs %d/%d",
			auto.States, auto.Transitions, full.States, full.Transitions)
	}
	if len(auto.Violations) != len(full.Violations) {
		t.Errorf("violations differ: %d vs %d", len(auto.Violations), len(full.Violations))
	}
}

// TestPORVerdictsWorkerInvariant: on hgcheck's distinct-value driver over
// three MSI caches with evictions, a search under POR must report the
// same counts and verdicts at every worker count, because the ample set
// is a pure function of the state and never of the visit order. The
// parallel runs repeat, since a schedule-dependent choice would show in
// only some of them.
func TestPORVerdictsWorkerInvariant(t *testing.T) {
	build := func() *mcheck.System {
		sys := mcheck.NewHomogeneous(protocols.MustByName(protocols.NameMSI), 3)
		sys.SetPrograms(engine.CheckDriver(3, 1, false))
		return sys
	}
	opts := mcheck.Options{Evictions: true, POR: mcheck.PORAuto, Workers: 1}
	seq := mcheck.Explore(build(), opts)
	if seq.Truncated || seq.PORReduced == 0 {
		t.Fatalf("workers 1: truncated %t, %d ample states", seq.Truncated, seq.PORReduced)
	}
	for _, workers := range []int{2, 2, 2, 2, 4, 4, 4, 4} {
		opts.Workers = workers
		par := mcheck.Explore(build(), opts)
		label := fmt.Sprintf("workers %d vs 1", workers)
		assertSameVerdicts(t, label, seq, par)
		if par.Truncated {
			t.Errorf("%s: truncated", label)
		}
		if par.States != seq.States || par.Transitions != seq.Transitions || par.PORReduced != seq.PORReduced {
			t.Errorf("%s: %d states / %d transitions / %d ample, workers 1 %d / %d / %d", label,
				par.States, par.Transitions, par.PORReduced, seq.States, seq.Transitions, seq.PORReduced)
		}
	}
}
