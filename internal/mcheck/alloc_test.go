//go:build !race

package mcheck

// Allocation regression guards. The search's hot path is the numbered
// expansion: decode the taken key into a vector, then per move look the
// move up in the memos, edit a copy of the vector, key it and probe the
// visited set, which must allocate nothing for a successor the visited
// set rejects once the memos are warm. Clone → Apply → encode is off it,
// but Clone stays the cost of a value copy of a state, kept to
// O(components) allocations by the flat state layout. The file is
// excluded under the race detector, whose instrumentation changes
// allocation counts; `make check` runs it in a separate uninstrumented
// pass.

import (
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
// through the search's own worker under every storage mode: in steady
// state, with every memo warm and every successor already visited,
// expanding a state — memo lookups, vector edits, keying and visited-set
// probes — allocates nothing.
func TestAllocRegressionInPlace(t *testing.T) {
	sys := allocSystem(t)
	for _, mode := range []struct {
		name string
		opts Options
	}{
		{"exact", Options{}},
		{"hash-compaction", Options{HashCompaction: true}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			opts := mode.opts
			opts.Evictions = true
			opts.POR = POROff // every move, not an ample subset
			ctx := newSearchCtx(sys, opts, DefaultMaxStates, 1)
			visited := newVisited(opts, 1)
			defer visited.release()
			w := newWorker(ctx)
			key := ctx.num.number(sys).appendKey(nil)
			visited.Insert(key) // the expanded state is visited, as in a search
			var res Result
			admitted := 0
			expand := func() {
				w.cur.decode(key, ctx.num)
				w.expand(&res, visited.Insert, func([]byte) { admitted++ })
			}
			expand() // memoizes every move and admits every successor once
			if admitted == 0 || res.Transitions < 2 {
				t.Fatalf("measurement state has %d successors (%d admitted) — too few to measure", res.Transitions, admitted)
			}
			memos := func() (n int) {
				for _, pt := range ctx.num.pos {
					n += len(pt.memo)
				}
				return n + len(ctx.num.fifoPush)
			}
			warm := memos()
			succs, admitted := res.Transitions, 0
			allocs := testing.AllocsPerRun(200, expand)
			if admitted != 0 {
				t.Fatalf("%d successors admitted on a revisit", admitted)
			}
			if n := memos(); n != warm {
				t.Fatalf("a warm expansion missed a memo: %d memo entries, %d after the first expansion", n, warm)
			}
			perSucc := allocs / float64(succs)
			t.Logf("memo+vector+Insert: %.2f allocs per rejected successor", perSucc)
			if allocs > 0 {
				t.Errorf("memo+vector+Insert allocates %.2f per rejected successor, budget 0", perSucc)
			}
		})
	}
}

// TestAllocRegressionFrontier guards the frontier's publish/take cycle
// through the search's own admit path: an admitted key is copied into the
// worker's current slab, so the copies cost one allocation per 64 KiB of
// keys, and the queue's backing array and the batch slice are reused, so
// a take costs at most one allocation on top. A copy per admitted state would
// multiply across every state the search moves.
func TestAllocRegressionFrontier(t *testing.T) {
	scratch := make([]byte, 200) // a typical encoding's size
	f := newFrontier(newVisited(Options{}, 1), append([]byte(nil), scratch...))
	const admitted = 32
	var pend pending
	batch := make([][]byte, 0, maxBatch)
	done := 0
	cycle := func() {
		for i := 0; i < admitted; i++ {
			pend.admit(scratch)
		}
		batch = f.exchange(pend.keys, done, batch)
		pend.published()
		done = len(batch)
	}
	for i := 0; i < 1024; i++ { // pre-grow the queue
		cycle()
	}
	allocs := testing.AllocsPerRun(200, cycle)
	t.Logf("frontier publish+take cycle: %.2f allocs for %d admitted states", allocs, admitted)
	if budget := admitted / 8; allocs > float64(budget) {
		t.Errorf("frontier publish+take cycle allocates %.2f for %d admitted states, budget %d — admitted keys must share slabs",
			allocs, admitted, budget)
	}
}
