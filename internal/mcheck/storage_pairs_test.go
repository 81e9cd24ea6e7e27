package mcheck_test

// Storage-mode agreement on the fused Table II pairs: hash compaction and
// the parallel exact set must reproduce the exact sequential search's
// verdicts on every heterogeneous system,
// sequentially and in parallel. This is the soundness
// gate for the state image's decode on MergedDir states (bridges, proxy captures,
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

// storeLoadProg is the storage matrix's short workload, the same program
// on every core — enough to drive every bridge flavor while keeping the
// 4-run matrix affordable on one core (the release/acquire sync paths are
// covered by the litmus matrix and syncProg's POR matrix).
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
// lossy or parallel storage configuration must agree exactly
// with the exact sequential search. The worker axis is spread across the modes. The
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
			// POR pinned off throughout: this matrix gates the image decode
			// and the visited sets, so the baselines should keep
			// covering the full unreduced space.
			exact := mcheck.Explore(sys, mcheck.Options{Workers: 1, POR: mcheck.POROff})
			configs := []struct {
				name string
				opts mcheck.Options
			}{
				{"hash/seq", mcheck.Options{Workers: 1, HashCompaction: true, POR: mcheck.POROff}},
				{"exact/par", mcheck.Options{Workers: workers, POR: mcheck.POROff}},
				{"hash/par", mcheck.Options{Workers: workers, HashCompaction: true, POR: mcheck.POROff}},
			}
			for _, cfg := range configs {
				res := mcheck.Explore(pairSystem(t, pair[0], pair[1], storeLoadProg), cfg.opts)
				assertStorageAgrees(t, cfg.name, res, exact)
			}
		})
	}
}

// TestStorageModesCrossHeadlinePair runs the full storage-mode × workers
// cross on the paper's headline MESI+RCC-O fusion: every combination must
// agree with the exact sequential search. The cross runs as the subtest
// "symmetry=false", the name it has carried since the checker also had a
// symmetry-reduced search; every search is unreduced now.
func TestStorageModesCrossHeadlinePair(t *testing.T) {
	t.Run("symmetry=false", func(t *testing.T) {
		workers := testWorkers()
		modes := []struct {
			name string
			set  func(*mcheck.Options)
		}{
			{"exact", func(o *mcheck.Options) {}},
			{"hash", func(o *mcheck.Options) { o.HashCompaction = true }},
		}
		exact := mcheck.Explore(pairSystem(t, "MESI", "RCC-O", storeLoadProg),
			mcheck.Options{Workers: 1, POR: mcheck.POROff})
		for _, mode := range modes {
			for _, w := range []int{1, workers} {
				if mode.name == "exact" && w == 1 {
					continue // that is the baseline itself
				}
				opts := mcheck.Options{Workers: w, POR: mcheck.POROff}
				mode.set(&opts)
				res := mcheck.Explore(pairSystem(t, "MESI", "RCC-O", storeLoadProg), opts)
				label := fmt.Sprintf("%s workers=%d", mode.name, w)
				assertStorageAgrees(t, label, res, exact)
			}
		}
	})
}
