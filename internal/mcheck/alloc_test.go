//go:build !race

package mcheck

// Allocation regression guard for the successor-generation hot path. The
// search's inner loop is Clone → Apply → encode; the flat-slice state
// layout keeps that to O(components) allocations per successor (one
// backing slice per cloned component plus a handful of fixed-count
// slices: route is shared, messages live in one arena, core loads in
// another, and the encode buffer is reused). The file is excluded under
// the race detector, whose instrumentation changes allocation counts;
// `make check` runs it in a separate uninstrumented pass.

import (
	"bytes"
	"testing"

	"heterogen/internal/protocols"
	"heterogen/internal/spec"
)

// allocBudget is the per-successor ceiling for the 3-cache MESI
// configuration below (4 components, 3 cores). Measured ~18 on the flat
// layout; the pre-optimization map-based layout sat well above 60. Slack
// covers Go-version variance without masking a return to per-map clones.
const allocBudget = 30

func TestAllocRegressionCloneApplyEncode(t *testing.T) {
	p := protocols.MustByName(protocols.NameMESI)
	sys := NewHomogeneous(p, 3)
	progs := make([][]spec.CoreReq, 3)
	for i := range progs {
		progs[i] = []spec.CoreReq{
			{Op: spec.OpStore, Addr: 0, Value: 7},
			{Op: spec.OpLoad, Addr: 1},
		}
	}
	sys.SetPrograms(progs)
	// Step a few transitions in so caches, directory and channels are all
	// populated — an empty system would understate the clone cost.
	for i := 0; i < 6; i++ {
		moves := sys.Moves(false)
		if len(moves) == 0 {
			break
		}
		next := sys.Clone()
		if next.Apply(moves[0]) {
			sys = next
		}
	}
	moves := sys.Moves(false)
	if len(moves) == 0 {
		t.Fatal("system quiesced before the measurement point")
	}
	mv := moves[0]
	var buf []byte
	allocs := testing.AllocsPerRun(200, func() {
		next := sys.Clone()
		next.Apply(mv)
		buf = next.EncodeBinary(buf[:0])
	})
	t.Logf("Clone+Apply+encode: %.1f allocs per successor", allocs)
	if allocs > allocBudget {
		t.Errorf("Clone+Apply+encode allocates %.1f per successor, budget %d — the flat state layout regressed",
			allocs, allocBudget)
	}
}

// TestAllocRegressionFrontier guards the frontier's publish/take cycle:
// the only allocation per admitted state is the copy of its encoding out
// of the worker's scratch buffer, and the queue windows and the batch
// slice are reused, so a take costs at most one allocation on top. A
// regression here multiplies across every state the search moves.
func TestAllocRegressionFrontier(t *testing.T) {
	q, err := newSpillQueue("", 0)
	if err != nil {
		t.Fatal(err)
	}
	scratch := make([]byte, 200) // a typical encoding's size
	f := newFrontier(q, append([]byte(nil), scratch...))
	const admitted = 8
	pend := make([][]byte, 0, admitted)
	batch := make([][]byte, 0, maxBatch)
	done := 0
	cycle := func() {
		for i := 0; i < admitted; i++ {
			pend = append(pend, bytes.Clone(scratch))
		}
		batch = f.exchange(pend, done, batch)
		clear(pend)
		pend = pend[:0]
		done = len(batch)
	}
	for i := 0; i < 1024; i++ { // pre-grow the queue windows
		cycle()
	}
	allocs := testing.AllocsPerRun(200, cycle)
	t.Logf("frontier publish+take cycle: %.1f allocs for %d admitted states", allocs, admitted)
	if allocs > admitted+1 {
		t.Errorf("frontier publish+take cycle allocates %.1f, budget %d — one encoding copy per admitted state plus one batch slice",
			allocs, admitted+1)
	}
}
