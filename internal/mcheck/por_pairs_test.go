package mcheck_test

// Agreement tests for the ample-set partial order reduction: on every
// fused Table II pair, the reduced search must report exactly the
// deadlock count and outcome set of the unreduced search — sequentially,
// in parallel, under hash compaction and composed with the symmetry
// reduction — while visiting fewer states. External package: building
// fused systems needs core.Fuse (core imports mcheck). The litmus-shape
// agreement (allowed/forbidden verdicts on MP/SB/IRIW) lives in
// internal/litmus/por_test.go.

import (
	"testing"

	"heterogen/internal/core"
	"heterogen/internal/mcheck"
)

// TestPORSoundTableIIPairs: on every fused Table II pair the reduced
// search must match the unreduced search's terminal-state verdicts
// exactly — deadlock count and outcome set — under every production
// configuration axis (workers, hash compaction, symmetry), while
// actually shrinking the visited set. Because the ample choice is a pure
// function of the state, the reduced parallel search must also report
// exactly the reduced sequential counts. The one-worker searches are
// shared with TestSymmetrySoundTableIIPairs (searchPair).
func TestPORSoundTableIIPairs(t *testing.T) {
	workers := testWorkers()
	for _, pair := range core.TableIIPairs() {
		pair := pair
		t.Run(pair[0]+"+"+pair[1], func(t *testing.T) {
			t.Parallel()
			plain := searchPair(t, pair[0], pair[1], mcheck.POROff, false)
			seq := searchPair(t, pair[0], pair[1], mcheck.PORAuto, false)
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
			// Composition with the symmetry reduction: verdicts still
			// exact, and the composed search is no larger than either
			// reduction alone.
			symPlain := searchPair(t, pair[0], pair[1], mcheck.POROff, true)
			symPOR := searchPair(t, pair[0], pair[1], mcheck.PORAuto, true)
			assertSameVerdicts(t, "por+symmetry", plain, symPOR)
			if symPOR.SymmetryPerms != symPlain.SymmetryPerms {
				t.Errorf("por changed the detected group order: %d vs %d",
					symPOR.SymmetryPerms, symPlain.SymmetryPerms)
			}
			if symPOR.States > symPlain.States || symPOR.States > seq.States {
				t.Errorf("por+symmetry visited %d states (symmetry alone %d, por alone %d)",
					symPOR.States, symPlain.States, seq.States)
			}
		})
	}
}

// TestPORHeadlineReduction pins the reduction counts of the headline
// fusion exactly: MESI & RCC-O at two caches per cluster under syncProg,
// one worker, with POR and symmetry each off and on. The README quotes
// these rows; a change to either reduction that moves a count fails here.
func TestPORHeadlineReduction(t *testing.T) {
	rows := []struct {
		name                       string
		por                        mcheck.PORMode
		symmetry                   bool
		states, transitions, ample int
		perms                      int
	}{
		{"unreduced", mcheck.POROff, false, 165653, 548158, 0, 1},
		{"por", mcheck.PORAuto, false, 22060, 42888, 5088, 1},
		{"symmetry", mcheck.POROff, true, 43512, 143940, 0, 4},
		{"por+symmetry", mcheck.PORAuto, true, 6090, 11956, 1355, 4},
	}
	for _, row := range rows {
		r := searchPair(t, "MESI", "RCC-O", row.por, row.symmetry)
		if r.States != row.states || r.Transitions != row.transitions || r.PORReduced != row.ample ||
			r.SymmetryPerms != row.perms || r.Deadlocks != 0 || len(r.Outcomes) != 1 || r.Truncated {
			t.Errorf("%s: %d states, %d transitions, %d ample, ×%d, %d deadlocks, %d outcomes, truncated %t; want %d, %d, %d, ×%d, 0, 1, false",
				row.name, r.States, r.Transitions, r.PORReduced, r.SymmetryPerms, r.Deadlocks, len(r.Outcomes), r.Truncated,
				row.states, row.transitions, row.ample, row.perms)
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
