//go:build !race

package spec_test

// Allocation regression guards and layer benchmarks for the controllers'
// delivery paths, which the performance simulator runs once per message
// and the checker once per delivery move. Deliveries dispatch on state
// and message numbers through dense rows, so a round of steady-state
// traffic allocates nothing. The file is excluded under the race
// detector, whose instrumentation changes allocation counts; `make
// allocs` runs it uninstrumented.

import (
	"testing"

	"heterogen/internal/protocols"
	"heterogen/internal/spec"
)

// trafficAddrs is the working set every traffic round cycles over.
const trafficAddrs = 64

// msgOf builds messages of one protocol type, numbered once.
func msgOf(p *spec.Protocol, mt spec.MsgType) func(a spec.Addr, src, dst spec.NodeID, hasData bool) spec.Msg {
	t, vnet := p.MsgID(mt), p.VNetOf(mt)
	return func(a spec.Addr, src, dst spec.NodeID, hasData bool) spec.Msg {
		return spec.Msg{Type: t, Addr: a, Src: src, Dst: dst, Req: src, Data: 5, HasData: hasData, VNet: vnet}
	}
}

// dirTraffic returns one round of steady-state MSI directory traffic at
// the next address of the working set — a write transaction (GetM, then
// the owner's PutM write-back), a read transaction (GetS, then PutS) and
// a stalled Data — with the line table already grown to the working set.
// A round makes 5 deliveries.
func dirTraffic(tb testing.TB) (*spec.DirInst, func()) {
	p := protocols.MustByName(protocols.NameMSI)
	const dirID, cache = spec.NodeID(8), spec.NodeID(1)
	d := spec.NewDirInst(dirID, p, spec.NewMemory())
	getM, putM := msgOf(p, protocols.MsgGetM), msgOf(p, protocols.MsgPutM)
	getS, putS, data := msgOf(p, protocols.MsgGetS), msgOf(p, protocols.MsgPutS), msgOf(p, protocols.MsgData)
	next := spec.Addr(0)
	round := func() {
		a := next
		next = (next + 1) % trafficAddrs
		for _, m := range [...]spec.Msg{
			getM(a, cache, dirID, false),
			putM(a, cache, dirID, true),
			getS(a, cache, dirID, false),
			putS(a, cache, dirID, false),
		} {
			if !d.Deliver(sink{}, m) {
				tb.Fatalf("%s at address %d stalled", p.Vocab().Format(m), a)
			}
		}
		if d.Deliver(sink{}, data(a, cache, dirID, true)) {
			tb.Fatalf("Data at idle address %d delivered", a)
		}
	}
	for range trafficAddrs {
		round() // grow the table and the memory to the working set
	}
	return d, round
}

// cacheTraffic returns one round of steady-state MSI cache traffic at the
// next address of the working set: a store miss completed by its Data, an
// eviction completed by its PutAck, and a stalled Data at the idle line.
// A round makes 3 deliveries (the issue and the eviction are core
// operations).
func cacheTraffic(tb testing.TB) (*spec.CacheInst, func()) {
	p := protocols.MustByName(protocols.NameMSI)
	const dirID, id = spec.NodeID(8), spec.NodeID(1)
	c := spec.NewCacheInst(id, dirID, p)
	data, putAck := msgOf(p, protocols.MsgData), msgOf(p, protocols.MsgPutAck)
	next := spec.Addr(0)
	return c, func() {
		a := next
		next = (next + 1) % trafficAddrs
		if !c.Issue(sink{}, spec.CoreReq{Op: spec.OpStore, Addr: a, Value: 7}) {
			tb.Fatalf("store at address %d refused", a)
		}
		if !c.Deliver(sink{}, data(a, dirID, id, true)) || !c.Idle() {
			tb.Fatalf("Data at address %d did not complete the store", a)
		}
		if !c.Evict(sink{}, a) || !c.Deliver(sink{}, putAck(a, dirID, id, false)) {
			tb.Fatalf("eviction of address %d did not complete", a)
		}
		if c.Deliver(sink{}, data(a, dirID, id, true)) {
			tb.Fatalf("Data at idle address %d delivered", a)
		}
	}
}

// TestAllocRegressionDirDeliver runs dirTraffic. Budget: 0 allocations
// per round. The delivered message and its sends stay on the stack, and
// neither materializing nor compacting a line allocates.
func TestAllocRegressionDirDeliver(t *testing.T) {
	d, round := dirTraffic(t)
	if allocs := testing.AllocsPerRun(200, round); allocs > 0 {
		t.Errorf("steady-state directory delivery allocates %.1f per round, budget 0", allocs)
	}
	if got := d.AppendBinary(nil); len(got) != 2 {
		t.Errorf("every line should be compacted away after its round; image %x", got)
	}
}

// TestAllocRegressionCacheDeliver runs cacheTraffic. Budget: 0
// allocations per round: a transaction inserts its line in place and
// compaction drops it, with no per-delivery lookup structure built.
func TestAllocRegressionCacheDeliver(t *testing.T) {
	c, round := cacheTraffic(t)
	round() // size the line slice
	if allocs := testing.AllocsPerRun(200, round); allocs > 0 {
		t.Errorf("steady-state cache delivery allocates %.1f per round, budget 0", allocs)
	}
	if c.NumLines() != 0 {
		t.Errorf("every line should be compacted away after its round; %d left", c.NumLines())
	}
}

// BenchmarkDeliver is the controller layer of a delivery: one op is one
// round of cacheTraffic or dirTraffic, and ns/deliver divides it by the
// round's deliveries. core's BenchmarkDeliver adds the merged directory.
func BenchmarkDeliver(b *testing.B) {
	for _, row := range []struct {
		name       string
		deliveries int
		traffic    func(testing.TB) func()
	}{
		{"CacheInst", 3, func(tb testing.TB) func() { _, r := cacheTraffic(tb); return r }},
		{"DirInst", 5, func(tb testing.TB) func() { _, r := dirTraffic(tb); return r }},
	} {
		b.Run(row.name, func(b *testing.B) {
			round := row.traffic(b)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				round()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*row.deliveries), "ns/deliver")
		})
	}
}
