package spec

import (
	"testing"
)

// collector gathers sent messages.
type collector struct{ msgs []Msg }

func (c *collector) Send(m Msg) { c.msgs = append(c.msgs, m) }

func (c *collector) take() []Msg {
	out := c.msgs
	c.msgs = nil
	return out
}

func TestCacheLoadMissFlow(t *testing.T) {
	p := miniProtocol()
	env := &collector{}
	cache := NewCacheInst(0, 9, p)
	dir := NewDirInst(9, p, NewMemory())
	dir.Memory().Write(3, 42)

	if !cache.CanIssue(CoreReq{Op: OpLoad, Addr: 3}) {
		t.Fatal("idle cache refuses load")
	}
	if !cache.Issue(env, CoreReq{Op: OpLoad, Addr: 3}) {
		t.Fatal("issue failed")
	}
	if cache.Idle() {
		t.Fatal("miss completed synchronously")
	}
	if cache.LineState(3) != p.Cache.StateID("IV") {
		t.Fatalf("line state = %s", p.Cache.StateName(cache.LineState(3)))
	}
	msgs := env.take()
	if len(msgs) != 1 || msgs[0].Type != p.MsgID("Get") || msgs[0].Dst != 9 || msgs[0].VNet != VReq {
		t.Fatalf("request = %v", msgs)
	}
	if !dir.Deliver(env, msgs[0]) {
		t.Fatal("directory stalled the request")
	}
	resp := env.take()
	if len(resp) != 1 || resp[0].Type != p.MsgID("Data") || resp[0].Data != 42 || !resp[0].HasData {
		t.Fatalf("response = %v", resp)
	}
	if !cache.Deliver(env, resp[0]) {
		t.Fatal("cache stalled the data")
	}
	if !cache.Idle() || cache.LastLoad() != 42 {
		t.Fatalf("load result = %d, idle=%t", cache.LastLoad(), cache.Idle())
	}
	if cache.LineState(3) != p.Cache.StateID("V") {
		t.Fatalf("final state = %s", p.Cache.StateName(cache.LineState(3)))
	}
	if v, ok := cache.LineData(3); !ok || v != 42 {
		t.Fatalf("line data = %d/%t", v, ok)
	}
}

func TestCacheStallAndRetry(t *testing.T) {
	p := miniProtocol()
	env := &collector{}
	cache := NewCacheInst(0, 9, p)
	// Data in state I stalls (no row).
	if cache.Deliver(env, Msg{Type: p.MsgID("Data"), Addr: 1, Data: 5, HasData: true}) {
		t.Fatal("stall expected")
	}
	// The failed delivery must not leak a materialized line.
	if len(cache.Addrs()) != 0 {
		t.Fatal("stalled delivery materialized a line")
	}
	// A blocked core op must have no side effects.
	if cache.Issue(env, CoreReq{Op: OpStore, Addr: 1, Value: 2}) {
		t.Fatal("store accepted by protocol without store rows")
	}
	if len(env.msgs) != 0 || !cache.Idle() {
		t.Fatal("failed issue had side effects")
	}
}

// ackProtocol exercises automatic invalidation-ack counting.
func ackProtocol() *Protocol {
	cache := &Machine{
		Name: "ack-cache", Kind: CacheCtrl, Init: "I",
		Stable: []State{"I", "M"},
		Rows: []Transition{
			{From: "I", On: OnCore(OpStore), Actions: []Action{Send("GetM", ToDir, PayloadNone)}, Next: "IM"},
			{From: "IM", On: OnMsgCond("Data", CondAckZero), Actions: []Action{LoadMsgData, StoreValue, CoreDone}, Next: "M"},
			{From: "IM", On: OnMsgCond("Data", CondAckPos), Actions: []Action{LoadMsgData, SetAcks}, Next: "IM_A"},
			{From: "IM_A", On: OnLastAck(), Actions: []Action{StoreValue, CoreDone}, Next: "M"},
		},
	}
	dir := &Machine{
		Name: "ack-dir", Kind: DirCtrl, Init: "V", Stable: []State{"V"},
		Rows: []Transition{
			{From: "V", On: OnMsg("GetM"), Actions: []Action{SendAck("Data", ToMsgSrc, PayloadMem)}, Next: "V"},
		},
	}
	return &Protocol{
		Name: "ack", Model: "SC", Cache: cache, Dir: dir,
		Msgs: map[MsgType]MsgInfo{
			"GetM":   {VNet: VReq},
			"Data":   {VNet: VResp, CarriesData: true},
			"InvAck": {VNet: VResp},
		},
		AckType: "InvAck",
	}
}

func TestAckCountingDataFirst(t *testing.T) {
	p := ackProtocol()
	env := &collector{}
	cache := NewCacheInst(0, 9, p)
	cache.Issue(env, CoreReq{Op: OpStore, Addr: 1, Value: 7})
	env.take()
	// Data with 2 pending acks.
	cache.Deliver(env, Msg{Type: p.MsgID("Data"), Addr: 1, Ack: 2, HasData: true})
	if cache.Idle() {
		t.Fatal("completed before acks")
	}
	cache.Deliver(env, Msg{Type: p.MsgID("InvAck"), Addr: 1})
	if cache.Idle() {
		t.Fatal("completed after one of two acks")
	}
	cache.Deliver(env, Msg{Type: p.MsgID("InvAck"), Addr: 1})
	if !cache.Idle() || cache.LineState(1) != p.Cache.StateID("M") {
		t.Fatalf("state = %s idle=%t", p.Cache.StateName(cache.LineState(1)), cache.Idle())
	}
	if v, _ := cache.LineData(1); v != 7 {
		t.Fatalf("stored value = %d", v)
	}
}

func TestAckCountingAcksFirst(t *testing.T) {
	// The classic race: acks overtake the data (balance goes negative).
	p := ackProtocol()
	env := &collector{}
	cache := NewCacheInst(0, 9, p)
	cache.Issue(env, CoreReq{Op: OpStore, Addr: 1, Value: 7})
	cache.Deliver(env, Msg{Type: p.MsgID("InvAck"), Addr: 1})
	cache.Deliver(env, Msg{Type: p.MsgID("InvAck"), Addr: 1})
	if cache.Idle() {
		t.Fatal("completed before data")
	}
	cache.Deliver(env, Msg{Type: p.MsgID("Data"), Addr: 1, Ack: 2, HasData: true})
	if !cache.Idle() || cache.LineState(1) != p.Cache.StateID("M") {
		t.Fatalf("state = %s idle=%t after late data", p.Cache.StateName(cache.LineState(1)), cache.Idle())
	}
}

// syncProtocol exercises whole-cache synchronization behavior.
func syncProtocol() *Protocol {
	cache := &Machine{
		Name: "sync-cache", Kind: CacheCtrl, Init: "I",
		Stable: []State{"I", "V", "D"},
		Rows: []Transition{
			{From: "I", On: OnCore(OpLoad), Actions: []Action{Send("Get", ToDir, PayloadNone)}, Next: "IV"},
			{From: "IV", On: OnMsg("Data"), Actions: []Action{LoadMsgData, CoreDone}, Next: "V"},
			{From: "V", On: OnCore(OpStore), Actions: []Action{StoreValue, CoreDone}, Next: "D"},
			{From: "V", On: OnCore(OpEvict), Next: "I"},
			{From: "D", On: OnCore(OpEvict), Actions: []Action{Send("WB", ToDir, PayloadLine)}, Next: "DI"},
			{From: "DI", On: OnMsg("Ack"), Next: "I"},
		},
		Sync: map[CoreOp]SyncBehavior{
			OpAcquire: {Invalidate: []State{"V"}},
			OpRelease: {Writeback: []State{"D"}, WaitOutstanding: true},
		},
	}
	dir := &Machine{
		Name: "sync-dir", Kind: DirCtrl, Init: "V", Stable: []State{"V"},
		Rows: []Transition{
			{From: "V", On: OnMsg("Get"), Actions: []Action{Send("Data", ToMsgSrc, PayloadMem)}, Next: "V"},
			{From: "V", On: OnMsg("WB"), Actions: []Action{WriteMem, Send("Ack", ToMsgSrc, PayloadNone)}, Next: "V"},
		},
	}
	return &Protocol{Name: "sync", Model: "RC", Cache: cache, Dir: dir,
		Msgs: map[MsgType]MsgInfo{
			"Get": {VNet: VReq}, "WB": {VNet: VReq, CarriesData: true},
			"Data": {VNet: VResp, CarriesData: true}, "Ack": {VNet: VResp},
		}}
}

func TestSyncBehaviors(t *testing.T) {
	p := syncProtocol()
	env := &collector{}
	cache := NewCacheInst(0, 9, p)
	dir := NewDirInst(9, p, NewMemory())

	// Fill two lines, dirty one.
	step := func(req CoreReq) {
		if !cache.Issue(env, req) {
			t.Fatalf("issue %v failed", req)
		}
		for len(env.msgs) > 0 {
			m := env.msgs[0]
			env.msgs = env.msgs[1:]
			var target Component = dir
			if m.Dst == 0 {
				target = cache
			}
			if !target.Deliver(env, m) {
				t.Fatalf("stall on %v", m)
			}
		}
	}
	step(CoreReq{Op: OpLoad, Addr: 1})
	step(CoreReq{Op: OpLoad, Addr: 2})
	step(CoreReq{Op: OpStore, Addr: 2, Value: 5})

	// Acquire self-invalidates V but keeps D.
	step(CoreReq{Op: OpAcquire})
	if cache.LineState(1) != p.Cache.StateID("I") {
		t.Errorf("V line survived acquire: %s", p.Cache.StateName(cache.LineState(1)))
	}
	if cache.LineState(2) != p.Cache.StateID("D") {
		t.Errorf("D line lost by acquire: %s", p.Cache.StateName(cache.LineState(2)))
	}

	// Release writes back dirty lines and waits for the ack.
	if !cache.Issue(env, CoreReq{Op: OpRelease}) {
		t.Fatal("release refused")
	}
	if cache.Idle() {
		t.Fatal("release completed before write-back ack")
	}
	wb := env.take()
	if len(wb) != 1 || wb[0].Type != p.MsgID("WB") || wb[0].Data != 5 {
		t.Fatalf("writeback = %v", wb)
	}
	dir.Deliver(env, wb[0])
	ack := env.take()
	cache.Deliver(env, ack[0])
	if !cache.Idle() || cache.LineState(2) != p.Cache.StateID("I") {
		t.Fatal("release did not complete after ack")
	}
	if dir.Memory().Read(2) != 5 {
		t.Fatal("writeback value lost")
	}

	// Undeclared sync ops are no-ops.
	if !cache.Issue(env, CoreReq{Op: OpFence}) || !cache.Idle() {
		t.Fatal("undeclared fence should complete immediately")
	}
}

func TestEvictNoopWithoutRow(t *testing.T) {
	p := miniProtocol()
	env := &collector{}
	cache := NewCacheInst(0, 9, p)
	if !cache.Issue(env, CoreReq{Op: OpEvict, Addr: 7}) {
		t.Fatal("no-op evict refused")
	}
	if !cache.Idle() || len(env.msgs) != 0 {
		t.Fatal("no-op evict had side effects")
	}
}

func TestDirSharerBookkeeping(t *testing.T) {
	// A directory with sharer tracking.
	dirM := &Machine{
		Name: "sh-dir", Kind: DirCtrl, Init: "I",
		Stable: []State{"I", "S"},
		Rows: []Transition{
			{From: "I", On: OnMsg("Get"), Actions: []Action{Send("Data", ToMsgSrc, PayloadMem), AddSharer}, Next: "S"},
			{From: "S", On: OnMsg("Get"), Actions: []Action{Send("Data", ToMsgSrc, PayloadMem), AddSharer}, Next: "S"},
			{From: "S", On: OnMsg("Upg"), Actions: []Action{SendAck("Data", ToMsgSrc, PayloadMem), InvSharers("Inv"), ClearSharers, SetOwner}, Next: "I"},
		},
	}
	p := &Protocol{Name: "sh", Model: "SC", Cache: miniCache(), Dir: dirM,
		Msgs: map[MsgType]MsgInfo{
			"Get": {VNet: VReq}, "Upg": {VNet: VReq},
			"Data": {VNet: VResp, CarriesData: true}, "Inv": {VNet: VFwd},
		}}
	env := &collector{}
	dir := NewDirInst(9, p, NewMemory())
	dir.Deliver(env, Msg{Type: p.MsgID("Get"), Addr: 1, Src: 10, Req: 10})
	dir.Deliver(env, Msg{Type: p.MsgID("Get"), Addr: 1, Src: 11, Req: 11})
	dir.Deliver(env, Msg{Type: p.MsgID("Get"), Addr: 1, Src: 12, Req: 12})
	env.take()
	// Upgrade from sharer 10: 11 and 12 invalidated, ack count 2.
	dir.Deliver(env, Msg{Type: p.MsgID("Upg"), Addr: 1, Src: 10, Req: 10})
	msgs := env.take()
	var invs, data int
	for _, m := range msgs {
		switch m.Type {
		case p.MsgID("Inv"):
			invs++
			if m.Dst == 10 {
				t.Error("requestor invalidated")
			}
			if m.Req != 10 {
				t.Error("inv ack target wrong")
			}
		case p.MsgID("Data"):
			data++
			if m.Ack != 2 {
				t.Errorf("ack count = %d, want 2", m.Ack)
			}
		}
	}
	if invs != 2 || data != 1 {
		t.Errorf("invs=%d data=%d", invs, data)
	}
	if dir.Line(1).Owner != 10 {
		t.Errorf("owner = %d", dir.Line(1).Owner)
	}
}

func TestSnapshotDeterminismAndClone(t *testing.T) {
	p := ackProtocol()
	env := &collector{}
	cache := NewCacheInst(0, 9, p)
	cache.Issue(env, CoreReq{Op: OpStore, Addr: 1, Value: 7})
	cache.Deliver(env, Msg{Type: p.MsgID("Data"), Addr: 1, Ack: 2, HasData: true})

	var a, b SnapshotWriter
	cache.Snapshot(&a)
	cp := cache.CloneCache()
	cp.Snapshot(&b)
	if a.String() != b.String() {
		t.Fatalf("clone snapshot differs:\n%s\n%s", a.String(), b.String())
	}
	// Mutating the clone must not affect the original.
	cp.Deliver(env, Msg{Type: p.MsgID("InvAck"), Addr: 1})
	var c SnapshotWriter
	cache.Snapshot(&c)
	if a.String() != c.String() {
		t.Fatal("clone shares line state with original")
	}
}

func TestDirCloneIndependence(t *testing.T) {
	p := miniProtocol()
	mem := NewMemory()
	dir := NewDirInst(9, p, mem)
	env := &collector{}
	dir.Deliver(env, Msg{Type: p.MsgID("Get"), Addr: 1, Src: 3, Req: 3})
	cp := dir.CloneDir(mem.Clone())
	var a, b SnapshotWriter
	dir.Snapshot(&a)
	cp.Snapshot(&b)
	if a.String() != b.String() {
		t.Fatal("dir clone snapshot differs")
	}
}
