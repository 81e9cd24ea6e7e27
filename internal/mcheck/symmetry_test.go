package mcheck_test

// Soundness tests for the cache-permutation symmetry reduction
// (canonical.go): on every Table II fused pair and on homogeneous
// MESI/MOESI/MESIF the canonicalized search must report exactly the
// deadlock count, outcome set and invariant verdicts of the unreduced
// search — sequentially and in parallel — while visiting fewer states.
// The tests live in an external package so they can drive core.Fuse /
// core.BuildSystem (core imports mcheck).

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

// syncProg is the fully symmetric pair workload: every core stores the
// same value (a distinct value per core would break interchangeability)
// and loads it back, with a release/acquire pair to exercise the sync
// paths of the RC-flavored protocols.
var syncProg = []spec.CoreReq{
	{Op: spec.OpStore, Addr: 0, Value: 7},
	{Op: spec.OpLoad, Addr: 0},
	{Op: spec.OpRelease},
	{Op: spec.OpAcquire},
}

// symmetricPrograms gives each of cores cores the syncProg program.
func symmetricPrograms(cores int) [][]spec.CoreReq {
	progs := make([][]spec.CoreReq, cores)
	for i := range progs {
		progs[i] = syncProg
	}
	return progs
}

// pairSystem builds the pair fused at 2 caches per cluster with prog on
// all four cores, so the caches of each cluster are interchangeable and
// the symmetry group has order 2!×2! = 4.
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
// syncProg. The symmetry matrix, the POR matrix and the headline pins all
// compare against the same unreduced and symmetry-only searches; a
// one-worker search is deterministic, so each (pair, reductions) search
// runs once per test binary and its result is shared read-only.
var pairSearches sync.Map // pairSearchKey → *pairSearch

type pairSearchKey struct {
	pair     string
	por      mcheck.PORMode
	symmetry bool
}

type pairSearch struct {
	once sync.Once
	res  *mcheck.Result
}

// searchPair returns the one-worker search of the pair's syncProg system
// under the given reductions, running it on first use.
func searchPair(t *testing.T, a, b string, por mcheck.PORMode, symmetry bool) *mcheck.Result {
	t.Helper()
	v, _ := pairSearches.LoadOrStore(pairSearchKey{a + "+" + b, por, symmetry}, &pairSearch{})
	ps := v.(*pairSearch)
	ps.once.Do(func() {
		ps.res = mcheck.Explore(pairSystem(t, a, b, syncProg),
			mcheck.Options{Workers: 1, POR: por, Symmetry: symmetry})
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

// assertSameVerdicts compares every checker verdict of a reduced search
// against the unreduced reference.
func assertSameVerdicts(t *testing.T, label string, plain, sym *mcheck.Result) {
	t.Helper()
	if sym.Deadlocks != plain.Deadlocks {
		t.Errorf("%s: symmetry reported %d deadlocks, unreduced %d", label, sym.Deadlocks, plain.Deadlocks)
	}
	if got, want := outcomesOf(sym), outcomesOf(plain); got != want {
		t.Errorf("%s: outcome sets differ:\nsymmetry:  %q\nunreduced: %q", label, got, want)
	}
	if len(sym.Violations) != len(plain.Violations) {
		t.Errorf("%s: symmetry reported %d invariant violations, unreduced %d",
			label, len(sym.Violations), len(plain.Violations))
	}
	if sym.Ok() != plain.Ok() {
		t.Errorf("%s: symmetry Ok()=%t, unreduced Ok()=%t", label, sym.Ok(), plain.Ok())
	}
}

// assertReduced checks the state count actually shrank, and never below
// the orbit-counting floor states/perms.
func assertReduced(t *testing.T, label string, plain, sym *mcheck.Result, wantPerms int) {
	t.Helper()
	if sym.SymmetryPerms != wantPerms {
		t.Errorf("%s: detected group order %d, want %d", label, sym.SymmetryPerms, wantPerms)
	}
	if sym.States >= plain.States {
		t.Errorf("%s: symmetry visited %d states, unreduced only %d", label, sym.States, plain.States)
	}
	if plain.States > sym.States*sym.SymmetryPerms {
		t.Errorf("%s: unreduced %d states exceeds reduced %d × group order %d",
			label, plain.States, sym.States, sym.SymmetryPerms)
	}
}

// TestSymmetrySoundTableIIPairs: on every fused Table II pair with two
// caches per cluster and identical core programs, the reduced search must
// match the unreduced search's verdicts exactly (sequentially and with a
// worker pool) and shrink the visited set. The group is 2! per cluster:
// order 4.
func TestSymmetrySoundTableIIPairs(t *testing.T) {
	for _, pair := range core.TableIIPairs() {
		pair := pair
		t.Run(pair[0]+"+"+pair[1], func(t *testing.T) {
			t.Parallel()
			// POR pinned off: the orbit bounds and the par-vs-seq count
			// equality below are properties of the unreduced search.
			plain := searchPair(t, pair[0], pair[1], mcheck.POROff, false)
			seq := searchPair(t, pair[0], pair[1], mcheck.POROff, true)
			par := mcheck.Explore(pairSystem(t, pair[0], pair[1], syncProg),
				mcheck.Options{Workers: 4, Symmetry: true, POR: mcheck.POROff})
			assertSameVerdicts(t, "sequential", plain, seq)
			assertSameVerdicts(t, "parallel", plain, par)
			assertReduced(t, "sequential", plain, seq, 4)
			if par.States != seq.States || par.Transitions != seq.Transitions {
				t.Errorf("parallel symmetry visited %d states/%d transitions, sequential %d/%d",
					par.States, par.Transitions, seq.States, seq.Transitions)
			}
		})
	}
}

// homogeneousSystem builds nCaches identical caches with the symmetric
// workload under one directory.
func homogeneousSystem(t *testing.T, proto string, nCaches int) *mcheck.System {
	t.Helper()
	p, err := protocols.ByName(proto)
	if err != nil {
		t.Fatal(err)
	}
	sys := mcheck.NewHomogeneous(p, nCaches)
	sys.SetPrograms(symmetricPrograms(nCaches))
	return sys
}

// TestSymmetrySoundHomogeneous: three identical caches give a full S3
// group (order 6). Checked with evictions on (the §VII-C configuration)
// and the SWMR invariant armed, so the invariant verdict comparison is
// exercised on the reduced path. The one-worker counts are pinned exactly.
func TestSymmetrySoundHomogeneous(t *testing.T) {
	pins := []struct {
		proto                   string
		plainStates, plainTrans int
		symStates, symTrans     int
	}{
		{protocols.NameMESI, 233015, 1045656, 39875, 178688},
		{protocols.NameMOESI, 255275, 1096653, 43622, 187291},
		{protocols.NameMESIF, 248963, 1076397, 42360, 182997},
	}
	for _, pin := range pins {
		pin, proto := pin, pin.proto
		t.Run(proto, func(t *testing.T) {
			t.Parallel()
			opts := mcheck.Options{
				Workers:    1,
				Evictions:  true,
				Invariants: []mcheck.Invariant{mcheck.SWMRInvariant("M")},
			}
			plain := mcheck.Explore(homogeneousSystem(t, proto, 3), opts)
			symOpts := opts
			symOpts.Symmetry = true
			seq := mcheck.Explore(homogeneousSystem(t, proto, 3), symOpts)
			parOpts := symOpts
			parOpts.Workers = 4
			par := mcheck.Explore(homogeneousSystem(t, proto, 3), parOpts)
			assertSameVerdicts(t, "sequential", plain, seq)
			assertSameVerdicts(t, "parallel", plain, par)
			assertReduced(t, "sequential", plain, seq, 6)
			if par.States != seq.States {
				t.Errorf("parallel symmetry visited %d states, sequential %d", par.States, seq.States)
			}
			if plain.States != pin.plainStates || plain.Transitions != pin.plainTrans ||
				seq.States != pin.symStates || seq.Transitions != pin.symTrans {
				t.Errorf("unreduced %d states / %d transitions, symmetry %d / %d; want %d / %d, %d / %d",
					plain.States, plain.Transitions, seq.States, seq.Transitions,
					pin.plainStates, pin.plainTrans, pin.symStates, pin.symTrans)
			}
		})
	}
}

// TestSymmetryDeclinesAsymmetricPrograms: when the driving cores run
// different programs no sound group exists; the search must silently fall
// back to the exact encoding and report group order 1 with identical
// results.
func TestSymmetryDeclinesAsymmetricPrograms(t *testing.T) {
	build := func() *mcheck.System {
		sys := homogeneousSystem(t, protocols.NameMESI, 2)
		sys.SetPrograms([][]spec.CoreReq{
			{{Op: spec.OpStore, Addr: 0, Value: 1}},
			{{Op: spec.OpLoad, Addr: 0}},
		})
		return sys
	}
	plain := mcheck.Explore(build(), mcheck.Options{Workers: 1, POR: mcheck.POROff})
	sym := mcheck.Explore(build(), mcheck.Options{Workers: 1, Symmetry: true, POR: mcheck.POROff})
	if sym.SymmetryPerms != 1 {
		t.Fatalf("asymmetric programs produced group order %d, want 1", sym.SymmetryPerms)
	}
	if sym.States != plain.States || sym.Transitions != plain.Transitions {
		t.Errorf("declined symmetry changed the search: %d/%d states vs %d/%d",
			sym.States, sym.Transitions, plain.States, plain.Transitions)
	}
	assertSameVerdicts(t, "declined", plain, sym)
}

// TestSymmetryPORVerdictsWorkerInvariant: on hgcheck's symmetric driver
// over three MSI caches, a search under POR plus symmetry must report the
// same counts and verdicts at every worker count. The frontier holds
// whichever orbit member reached it first, which depends on the schedule,
// so this holds only because the ample set is chosen by canonical
// position (selectAmple). Without that, a single parallel run drifted in
// about one run in eight at Workers 2 and one in two at Workers 4, hence
// the repeats.
func TestSymmetryPORVerdictsWorkerInvariant(t *testing.T) {
	build := func() *mcheck.System {
		sys := mcheck.NewHomogeneous(protocols.MustByName(protocols.NameMSI), 3)
		sys.SetPrograms(engine.CheckDriver(3, 1, true))
		return sys
	}
	opts := mcheck.Options{Evictions: true, Symmetry: true, POR: mcheck.PORAuto, Workers: 1}
	seq := mcheck.Explore(build(), opts)
	if seq.Truncated || seq.SymmetryPerms != 6 {
		t.Fatalf("workers 1: truncated %t, symmetry group ×%d, want ×6", seq.Truncated, seq.SymmetryPerms)
	}
	for _, workers := range []int{2, 2, 2, 2, 4, 4, 4, 4} {
		opts.Workers = workers
		par := mcheck.Explore(build(), opts)
		label := fmt.Sprintf("workers %d vs 1", workers)
		assertSameVerdicts(t, label, seq, par)
		if par.Truncated || par.SymmetryPerms != seq.SymmetryPerms {
			t.Errorf("%s: truncated %t, symmetry group ×%d", label, par.Truncated, par.SymmetryPerms)
		}
		if par.States != seq.States || par.Transitions != seq.Transitions || par.PORReduced != seq.PORReduced {
			t.Errorf("%s: %d states / %d transitions / %d ample, workers 1 %d / %d / %d", label,
				par.States, par.Transitions, par.PORReduced, seq.States, seq.Transitions, seq.PORReduced)
		}
	}
}
