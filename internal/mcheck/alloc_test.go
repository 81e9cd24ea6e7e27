//go:build !race

package mcheck

// Allocation regression guards. The search's hot path is the in-place
// expansion: decode the taken image once, then restore → Apply → splice →
// Insert per move, which must allocate nothing for a successor the
// visited set rejects. Clone → Apply → encode is no longer on it (workers
// clone the initial system once), but Clone stays the cost of a value
// copy of a state, kept to O(components) allocations by the flat state
// layout. The file is excluded under the race detector, whose
// instrumentation changes allocation counts; `make check` runs it in a
// separate uninstrumented pass.

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

// allocSystem is the 3-cache MESI configuration the guards measure,
// stepped a few transitions in so caches, directory and channels are all
// populated — an empty system would understate the cost.
func allocSystem(t *testing.T) *System {
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
	if len(sys.Moves(false)) == 0 {
		t.Fatal("system quiesced before the measurement point")
	}
	return sys
}

func TestAllocRegressionCloneApplyEncode(t *testing.T) {
	sys := allocSystem(t)
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

// TestAllocRegressionInPlace guards the search's per-transition loop, run
// through the search's own successorsInPlace under every storage mode: in
// steady state, with every successor already visited, restoring the
// state, applying a move, splicing the successor's image and probing the
// visited set allocate nothing.
func TestAllocRegressionInPlace(t *testing.T) {
	sys := allocSystem(t)
	pre := sys.EncodeBinary(nil)
	for _, mode := range []struct {
		name string
		opts Options
	}{
		{"exact", Options{}},
		{"hash-compaction", Options{HashCompaction: true}},
		{"bitstate", Options{Bitstate: true}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			opts := mode.opts
			opts.Evictions = true
			opts.POR = POROff // every move, not an ample subset
			ctx := newSearchCtx(sys, opts, DefaultMaxStates)
			visited := newVisited(opts, 1)
			defer visited.release()
			ins := visited.handle(0)
			cur := sys.Clone()
			var sc expandScratch
			if err := decodeImage(cur, pre, &sc.segs); err != nil {
				t.Fatal(err)
			}
			sc.moves = cur.AppendMoves(sc.moves[:0], opts.Evictions)
			var res Result
			admitted := 0
			expand := func() {
				ins.Begin()
				ctx.successorsInPlace(cur, pre, &res, &sc, ins.Insert, func([]byte) { admitted++ })
				ins.End()
				// Back to the expanded state for the next run, as the
				// next move's restore would.
				if err := cur.restore(pre, sc.segs, &sc.saved); err != nil {
					t.Fatal(err)
				}
			}
			expand() // admits every successor once
			if admitted == 0 || res.Transitions < 2 {
				t.Fatalf("measurement state has %d successors (%d admitted) — too few to measure", res.Transitions, admitted)
			}
			succs, admitted := res.Transitions, 0
			allocs := testing.AllocsPerRun(200, expand)
			if admitted != 0 {
				t.Fatalf("%d successors admitted on a revisit", admitted)
			}
			perSucc := allocs / float64(succs)
			t.Logf("restore+Apply+splice+Insert: %.2f allocs per rejected successor", perSucc)
			if allocs > 0 {
				t.Errorf("restore+Apply+splice+Insert allocates %.2f per rejected successor, budget 0", perSucc)
			}
		})
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
