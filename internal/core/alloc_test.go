//go:build !race

package core

// Allocation regression guards. The merged directory's delivery path
// dispatches on message numbers (the fusion's vocabulary) and its
// constituents' dense rows, so steady-state traffic that starts no bridge
// allocates nothing; see TestAllocRegressionMergedDeliver and the
// BenchmarkDeliver row below.
//
// The extraction fast path: once a
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
	c := cf.fresh()
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

// mergedTraffic returns one round of steady-state MESI&RCC-O traffic at
// the merged directory that starts no bridge, at the next address of a
// 64-address working set: the RCC-O cluster's GetV (a read fill with no
// other owner, served by its sub-directory), the MESI cluster's PutS at
// an idle line, and a stalled Data to the RCC-O sub-directory. A round
// makes 3 deliveries. A bridge is an in-flight allocation by design.
func mergedTraffic(tb testing.TB) func() {
	f, err := Fuse(Options{}, protocols.MustByName(protocols.NameMESI), protocols.MustByName(protocols.NameRCCO))
	if err != nil {
		tb.Fatal(err)
	}
	const mesiCache, rccCache = spec.NodeID(0), spec.NodeID(1)
	d := NewMergedDir(f, f.DefaultLayout(2))
	msg := func(mt spec.MsgType, src spec.NodeID, cluster int, vnet spec.VNet) func(a spec.Addr) spec.Msg {
		t := f.Vocab().ID(mt)
		return func(a spec.Addr) spec.Msg {
			return spec.Msg{Type: t, Addr: a, Src: src, Dst: d.DirID(cluster), Req: src, VNet: vnet}
		}
	}
	getV := msg(protocols.MsgGetV, rccCache, 1, spec.VReq)
	putS := msg(protocols.MsgPutS, mesiCache, 0, spec.VReq)
	data := msg(protocols.MsgData, rccCache, 1, spec.VResp)
	env := &sendCapture{}
	next := spec.Addr(0)
	round := func() {
		a := next
		next = (next + 1) % 64
		env.sends = env.sends[:0]
		if !d.Deliver(env, getV(a)) || !d.Deliver(env, putS(a)) || len(env.sends) != 2 {
			tb.Fatalf("GetV or PutS at address %d stalled or sent %d messages", a, len(env.sends))
		}
		if d.Deliver(env, data(a)) {
			tb.Fatalf("Data to the RCC-O directory at address %d delivered", a)
		}
		if len(d.bridges) != 0 {
			tb.Fatalf("traffic at address %d started a bridge", a)
		}
	}
	for range 64 {
		round() // grow the line tables to the working set
	}
	return round
}

// TestAllocRegressionMergedDeliver runs mergedTraffic. Budget: 0
// allocations per round.
func TestAllocRegressionMergedDeliver(t *testing.T) {
	round := mergedTraffic(t)
	if allocs := testing.AllocsPerRun(200, round); allocs > 0 {
		t.Errorf("steady-state merged-directory delivery allocates %.1f per round, budget 0", allocs)
	}
}

// BenchmarkDeliver is the merged-directory row of the controller layer
// (spec's BenchmarkDeliver has the cache and directory rows): one op is
// one round of mergedTraffic, and ns/deliver divides it by its 3
// deliveries.
func BenchmarkDeliver(b *testing.B) {
	b.Run("MergedDir", func(b *testing.B) {
		round := mergedTraffic(b)
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			round()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*3), "ns/deliver")
	})
}
