//go:build !race

package core

// Allocation regression guards. The merged directory's delivery path
// dispatches on message numbers (the fusion's vocabulary) and its
// constituents' dense rows, so steady-state traffic that starts no bridge
// allocates nothing; see TestAllocRegressionMergedDeliver and the
// BenchmarkDeliver row below. Excluded under the race detector
// (instrumentation changes alloc counts); `make check` runs it in a
// separate uninstrumented pass.

import (
	"testing"

	"heterogen/internal/protocols"
	"heterogen/internal/spec"
)

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
