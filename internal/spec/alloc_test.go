//go:build !race

package spec_test

// Allocation regression guard for a directory's delivery path, which the
// performance simulator runs once per directory-bound message. The file
// is excluded under the race detector, whose instrumentation changes
// allocation counts; `make allocs` runs it uninstrumented.

import (
	"testing"

	"heterogen/internal/protocols"
	"heterogen/internal/spec"
)

// TestAllocRegressionDirDeliver runs steady-state MSI directory traffic
// over a line table already grown to the working set: a write
// transaction (GetM, then the owner's PutM write-back), a read
// transaction (GetS, then PutS) and a stalled message. Budget: 0
// allocations per round. The delivered message and its sends stay on
// the stack, and neither materializing nor compacting a line allocates.
func TestAllocRegressionDirDeliver(t *testing.T) {
	p := protocols.MustByName(protocols.NameMSI)
	const dirID, cache = spec.NodeID(8), spec.NodeID(1)
	d := spec.NewDirInst(dirID, p, spec.NewMemory())
	msg := func(mt spec.MsgType, a spec.Addr, hasData bool) spec.Msg {
		return spec.Msg{Type: mt, Addr: a, Src: cache, Dst: dirID, Req: cache,
			Data: 5, HasData: hasData, VNet: p.VNetOf(mt)}
	}
	round := func(a spec.Addr) {
		for _, m := range []spec.Msg{
			msg(protocols.MsgGetM, a, false),
			msg(protocols.MsgPutM, a, true),
			msg(protocols.MsgGetS, a, false),
			msg(protocols.MsgPutS, a, false),
		} {
			if !d.Deliver(sink{}, m) {
				t.Fatalf("%s at address %d stalled", m.Type, a)
			}
		}
		if d.Deliver(sink{}, msg(protocols.MsgData, a, true)) {
			t.Fatalf("Data at idle address %d delivered", a)
		}
	}
	const addrs = 64
	for a := spec.Addr(0); a < addrs; a++ {
		round(a) // grow the table and the memory to the working set
	}
	next := spec.Addr(0)
	allocs := testing.AllocsPerRun(200, func() {
		round(next)
		next = (next + 1) % addrs
	})
	if allocs > 0 {
		t.Errorf("steady-state directory delivery allocates %.1f per round, budget 0", allocs)
	}
	if got := d.AppendBinary(nil); len(got) != 2 {
		t.Errorf("every line should be compacted away after its round; image %x", got)
	}
}
