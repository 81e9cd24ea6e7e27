package mcheck_test

// Storage-mode agreement on the fused Table II pairs: hash compaction,
// bitstate and the disk-spilling frontier must reproduce the exact
// search's verdicts on every heterogeneous system, sequentially and in
// parallel, with and without symmetry reduction. This is the soundness
// gate for the spill codec on MergedDir states (bridges, proxy captures,
// handshake cohorts): an unfaithful decode would change some state's
// successor set and the counts would diverge. External package: building
// fused systems needs core.Fuse, and core imports mcheck.

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"heterogen/internal/core"
	"heterogen/internal/mcheck"
	"heterogen/internal/spec"
)

// storeLoadProg is the storage matrix's short fully-symmetric workload —
// enough to drive every bridge flavor while keeping the 4-run matrix
// affordable on one core (the release/acquire sync paths are covered by
// the litmus matrix and syncProg's symmetry and POR matrices).
var storeLoadProg = []spec.CoreReq{
	{Op: spec.OpStore, Addr: 0, Value: 7},
	{Op: spec.OpLoad, Addr: 0},
}

// assertStorageAgrees compares every observable the storage engine could
// corrupt: state and transition counts, deadlocks, and the outcome set.
func assertStorageAgrees(t *testing.T, label string, got, want *mcheck.Result) {
	t.Helper()
	if got.Truncated {
		t.Errorf("%s: unexpectedly truncated at %d states", label, got.States)
	}
	if got.States != want.States || got.Transitions != want.Transitions {
		t.Errorf("%s: visited %d states / %d transitions, exact search %d / %d",
			label, got.States, got.Transitions, want.States, want.Transitions)
	}
	if got.Deadlocks != want.Deadlocks {
		t.Errorf("%s: %d deadlocks, exact search %d", label, got.Deadlocks, want.Deadlocks)
	}
	gk, wk := got.Outcomes.Keys(), want.Outcomes.Keys()
	sort.Strings(gk)
	sort.Strings(wk)
	if strings.Join(gk, "\n") != strings.Join(wk, "\n") {
		t.Errorf("%s: outcome sets differ:\ngot:  %v\nwant: %v", label, gk, wk)
	}
}

// TestStorageModesAgreeTableIIPairs: on every fused Table II pair, each
// lossy/spilled storage configuration must agree exactly with the exact
// sequential search. The worker axis is spread across the modes. The
// headline pair is left to TestStorageModesCrossHeadlinePair, whose full
// cross runs each of these configurations.
func TestStorageModesAgreeTableIIPairs(t *testing.T) {
	workers := testWorkers()
	for _, pair := range core.TableIIPairs() {
		pair := pair
		if pair == [2]string{"MESI", "RCC-O"} {
			continue
		}
		t.Run(pair[0]+"+"+pair[1], func(t *testing.T) {
			t.Parallel()
			sys := pairSystem(t, pair[0], pair[1], storeLoadProg)
			// POR pinned off throughout: this matrix gates the spill codec
			// and lossy visited sets, so the baselines should keep
			// covering the full unreduced space.
			exact := mcheck.Explore(sys, mcheck.Options{Workers: 1, POR: mcheck.POROff})
			configs := []struct {
				name string
				opts mcheck.Options
			}{
				{"hash/seq", mcheck.Options{Workers: 1, HashCompaction: true, POR: mcheck.POROff}},
				{"bitstate/par", mcheck.Options{Workers: workers, Bitstate: true, POR: mcheck.POROff}},
				{"hash+spill/par", mcheck.Options{Workers: workers, HashCompaction: true,
					SpillDir: t.TempDir(), SpillRing: 256, POR: mcheck.POROff}},
			}
			for _, cfg := range configs {
				res := mcheck.Explore(pairSystem(t, pair[0], pair[1], storeLoadProg), cfg.opts)
				assertStorageAgrees(t, cfg.name, res, exact)
				// Small pairs (the GPU fusions run a few hundred states)
				// never outgrow the ring; only demand disk waves where the
				// space is wide enough to force them.
				if cfg.opts.SpillDir != "" && res.SpilledStates == 0 && res.States > 10_000 {
					t.Errorf("%s: ring of 256 never spilled a wave (%d states)", cfg.name, res.States)
				}
			}
		})
	}
}

// TestStorageModesCrossHeadlinePair runs the full storage-mode ×
// workers × symmetry cross on the paper's headline MESI+RCC-O fusion:
// every combination must agree with the exact search at the same
// symmetry setting (the reduction changes the state count, so reduced
// runs compare against the reduced exact baseline).
func TestStorageModesCrossHeadlinePair(t *testing.T) {
	workers := testWorkers()
	for _, sym := range []bool{false, true} {
		sym := sym
		t.Run(fmt.Sprintf("symmetry=%t", sym), func(t *testing.T) {
			t.Parallel()
			modes := []struct {
				name string
				set  func(*mcheck.Options)
			}{
				{"exact", func(o *mcheck.Options) {}},
				{"hash", func(o *mcheck.Options) { o.HashCompaction = true }},
				{"bitstate", func(o *mcheck.Options) { o.Bitstate = true }},
				{"exact+spill", func(o *mcheck.Options) { o.SpillDir = t.TempDir(); o.SpillRing = 256 }},
				{"hash+spill", func(o *mcheck.Options) {
					o.HashCompaction = true
					o.SpillDir = t.TempDir()
					o.SpillRing = 256
				}},
			}
			exact := mcheck.Explore(pairSystem(t, "MESI", "RCC-O", storeLoadProg),
				mcheck.Options{Workers: 1, Symmetry: sym, POR: mcheck.POROff})
			if sym && exact.SymmetryPerms != 4 {
				t.Fatalf("symmetry baseline detected group order %d, want 4", exact.SymmetryPerms)
			}
			for _, mode := range modes {
				for _, w := range []int{1, workers} {
					if mode.name == "exact" && w == 1 {
						continue // that is the baseline itself
					}
					opts := mcheck.Options{Workers: w, Symmetry: sym, POR: mcheck.POROff}
					mode.set(&opts)
					res := mcheck.Explore(pairSystem(t, "MESI", "RCC-O", storeLoadProg), opts)
					label := fmt.Sprintf("%s workers=%d", mode.name, w)
					assertStorageAgrees(t, label, res, exact)
					if opts.SpillDir != "" && res.SpilledStates == 0 {
						t.Errorf("%s: ring of 256 never spilled a wave (%d states)", label, res.States)
					}
				}
			}
		})
	}
}
