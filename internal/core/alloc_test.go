//go:build !race

package core

// Allocation regression guard for the extraction fast path. Once a
// (state, message) pair is in the growing table, a delivery must replay it
// — a locked span lookup, the recorded sends and the memory image —
// without the interpreter, key encoding or map probes. A regression here multiplies across the millions of deliveries
// the §VII-C extraction replays. Excluded under the race detector
// (instrumentation changes alloc counts); `make check` runs it in a
// separate uninstrumented pass.

import (
	"testing"

	"heterogen/internal/protocols"
	"heterogen/internal/spec"
)

// memoReplayBudget is the per-delivery ceiling for a memo-hit replay
// plus the test's own memory restore. Measured 0 on the current path
// (the decode cursors stay on the stack); the slack absorbs an escaping
// cursor. The interpreted deliver it replaces sits far above this (proxy
// clones, bridge phases, send capture).
const memoReplayBudget = 2

func TestAllocRegressionMemoReplay(t *testing.T) {
	f := fusePair(t, protocols.NameMSI, protocols.NameRCC)
	cfg := TableIICompileConfig(true, 1)
	base, err := Compile(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A non-stall message deliverable in the initial state, from the
	// finished table (renumbering keeps state 0 initial).
	var m spec.Msg
	found := false
	for _, ri := range base.spans[0] {
		if r := &base.recs[ri]; r.tr.next != stallState {
			m, found = r.msg, true
			break
		}
	}
	if !found {
		t.Fatal("initial state has no non-stall entry to replay")
	}

	// A fresh growing table and a directory bound to it, mid-extraction:
	// the pair is interpreted once below, then every measured delivery is
	// a memo hit.
	cf, sys := newCompiledFusion(f, cfg)
	c := newCompiler(cf)
	c.intern(cf.layout.Merged)
	d := &CompiledDir{cf: cf, mem: sys.Mem, grow: c}
	env := spec.EnvFunc(func(spec.Msg) {})
	init := c.states[0]
	restore := func() {
		d.cur = 0
		if err := d.mem.DecodeState(spec.NewDec(init.mem)); err != nil {
			t.Fatal(err)
		}
	}
	if !d.Deliver(env, m) {
		t.Fatalf("delivery of %s unexpectedly stalled", m)
	}
	restore()

	allocs := testing.AllocsPerRun(200, func() {
		d.Deliver(env, m)
		restore()
	})
	if c.memoHits < 200 {
		t.Fatalf("measured loop ran the interpreter (%d memo hits)", c.memoHits)
	}
	t.Logf("memo-hit deliver+restore: %.1f allocs per delivery", allocs)
	if allocs > memoReplayBudget {
		t.Errorf("memo-hit replay allocates %.1f per delivery, budget %d — the extraction fast path regressed",
			allocs, memoReplayBudget)
	}
}
