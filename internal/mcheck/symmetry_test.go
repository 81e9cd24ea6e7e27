package mcheck_test

// Soundness tests for the cache-permutation symmetry reduction
// (canonical.go): on every Table II fused pair and on homogeneous
// MESI/MOESI/MESIF the canonicalized search must report exactly the
// deadlock count, outcome set and invariant verdicts of the unreduced
// search — sequentially and in parallel — while visiting fewer states.
// The tests live in an external package so they can drive core.Fuse /
// core.BuildSystem (core imports mcheck).

import (
	"sort"
	"strings"
	"testing"

	"heterogen/internal/core"
	"heterogen/internal/engine"
	"heterogen/internal/mcheck"
	"heterogen/internal/protocols"
	"heterogen/internal/spec"
)

// symmetricPrograms gives every core the same program: store a distinct
// value is NOT allowed (it would break interchangeability), so all cores
// store the same value and load it back, with a release/acquire pair to
// exercise the sync paths of the RC-flavored protocols.
func symmetricPrograms(cores int) [][]spec.CoreReq {
	prog := []spec.CoreReq{
		{Op: spec.OpStore, Addr: 0, Value: 7},
		{Op: spec.OpLoad, Addr: 0},
		{Op: spec.OpRelease},
		{Op: spec.OpAcquire},
	}
	progs := make([][]spec.CoreReq, cores)
	for i := range progs {
		progs[i] = prog
	}
	return progs
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

// fusedSystem builds a 2-caches-per-cluster system for the pair with the
// fully symmetric workload.
func fusedSystem(t *testing.T, a, b string) *mcheck.System {
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
	sys.SetPrograms(symmetricPrograms(4))
	return sys
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
			plain := mcheck.Explore(fusedSystem(t, pair[0], pair[1]),
				mcheck.Options{Workers: 1, POR: mcheck.POROff})
			seq := mcheck.Explore(fusedSystem(t, pair[0], pair[1]),
				mcheck.Options{Workers: 1, Symmetry: true, POR: mcheck.POROff})
			par := mcheck.Explore(fusedSystem(t, pair[0], pair[1]),
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
// exercised on the reduced path.
func TestSymmetrySoundHomogeneous(t *testing.T) {
	for _, proto := range []string{protocols.NameMESI, protocols.NameMOESI, protocols.NameMESIF} {
		proto := proto
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

// TestSymmetryPORVerdictsWorkerInvariant pins what a parallel search under
// POR plus symmetry does guarantee. On hgcheck's symmetric driver over
// three MSI caches, Workers 1 and Workers 2 may visit different state and
// transition counts (which orbit member reaches the frontier first can
// change the ample set), but deadlocks, the outcome set and the symmetry
// group order must agree.
func TestSymmetryPORVerdictsWorkerInvariant(t *testing.T) {
	build := func() *mcheck.System {
		sys := mcheck.NewHomogeneous(protocols.MustByName(protocols.NameMSI), 3)
		sys.SetPrograms(engine.CheckDriver(3, 1, true))
		return sys
	}
	opts := mcheck.Options{Evictions: true, Symmetry: true, POR: mcheck.PORAuto, Workers: 1}
	seq := mcheck.Explore(build(), opts)
	opts.Workers = 2
	par := mcheck.Explore(build(), opts)
	if seq.Truncated || par.Truncated {
		t.Fatalf("truncated search: workers 1 %v, workers 2 %v", seq.Truncated, par.Truncated)
	}
	assertSameVerdicts(t, "workers 2 vs 1", seq, par)
	if par.SymmetryPerms != seq.SymmetryPerms || seq.SymmetryPerms != 6 {
		t.Errorf("symmetry group order: workers 1 ×%d, workers 2 ×%d, want ×6", seq.SymmetryPerms, par.SymmetryPerms)
	}
	if par.States != seq.States || par.Transitions != seq.Transitions {
		t.Logf("counts drifted: workers 1 %d states / %d transitions, workers 2 %d / %d",
			seq.States, seq.Transitions, par.States, par.Transitions)
	}
}
