package spec

import (
	"strings"
	"testing"
	"unsafe"
)

const pccSample = `
# A tiny valid/dirty protocol in the PCC-like format.
protocol TVD model RC acktype InvAck

message Get req
message WB req data
message Data resp data
message Ack resp
message InvAck resp
message Inv fwd

cache init I stable I V D
  I Load -> IV : send Get dir
  IV msg Data -> V : loadmsg, coredone
  V Load -> V : coredone
  V Store -> D : storevalue, coredone
  V Evict -> I
  D Load -> D : coredone
  D Evict -> DI : send WB dir line
  DI msg Ack -> I
  sync Acquire invalidate V
  sync Release writeback D wait
  invalidateonfill V

dir init V stable V
  V msg Get -> V : send Data msgsrc mem
  V msg WB -> V : writemem, send Ack msgsrc
`

func TestParsePCC(t *testing.T) {
	p, err := ParsePCC(pccSample)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "TVD" || string(p.Model) != "RC" || p.AckType != "InvAck" {
		t.Errorf("header parsed wrong: %s %s %s", p.Name, p.Model, p.AckType)
	}
	if len(p.Msgs) != 6 {
		t.Errorf("messages = %d, want 6", len(p.Msgs))
	}
	if p.Msgs["WB"].VNet != VReq || !p.Msgs["WB"].CarriesData {
		t.Error("WB message info wrong")
	}
	if p.Cache.Init != "I" || len(p.Cache.Stable) != 3 {
		t.Error("cache section wrong")
	}
	if len(p.Cache.Rows) != 8 {
		t.Errorf("cache rows = %d, want 8", len(p.Cache.Rows))
	}
	if sb, ok := p.Cache.Sync[OpRelease]; !ok || !sb.WaitOutstanding || len(sb.Writeback) != 1 {
		t.Errorf("release sync = %+v", p.Cache.Sync[OpRelease])
	}
	if len(p.Cache.InvalidateOnFill) != 1 || p.Cache.InvalidateOnFill[0] != "V" {
		t.Error("invalidateonfill wrong")
	}
	tr := p.Cache.OnCoreOp("D", OpEvict)
	if tr == nil || tr.Actions[0].Payload != PayloadLine {
		t.Errorf("eviction row wrong: %v", tr)
	}
	if p.Dir.Init != "V" || len(p.Dir.Rows) != 2 {
		t.Error("dir section wrong")
	}
}

func TestPCCRoundTrip(t *testing.T) {
	p, err := ParsePCC(pccSample)
	if err != nil {
		t.Fatal(err)
	}
	exported := ExportPCC(p)
	p2, err := ParsePCC(exported)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, exported)
	}
	if ExportPCC(p2) != exported {
		t.Error("export not a fixed point")
	}
	if len(p2.Cache.Rows) != len(p.Cache.Rows) || len(p2.Dir.Rows) != len(p.Dir.Rows) {
		t.Error("round trip lost rows")
	}
}

func TestParsePCCErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"no protocol", "message Get req\ncache init I stable I\n"},
		{"bad vnet", "protocol P model SC\nmessage Get bus\n"},
		{"bad model", "protocol P model ZZZ\nmessage G req\ncache init I stable I\n  I Load -> I : coredone\ndir init V stable V\n"},
		{"transition before section", "protocol P model SC\nI Load -> I\n"},
		{"bad event", "protocol P model SC\ncache init I stable I\n  I Jump -> I\ndir init V stable V\n"},
		{"bad action", "protocol P model SC\nmessage G req\ncache init I stable I\n  I Load -> I : teleport\ndir init V stable V\n"},
		{"bad cond", "protocol P model SC\nmessage G req\ncache init I stable I\n  I msg G maybe -> I\ndir init V stable V\n"},
		{"undeclared msg", "protocol P model SC\ncache init I stable I\n  I Load -> I : send Nope dir\ndir init V stable V\n"},
		{"sync in dir", "protocol P model SC\nmessage G req\ncache init I stable I\n  I Load -> I : coredone\ndir init V stable V\n  sync Fence wait\n"},
		{"malformed transition", "protocol P model SC\ncache init I stable I\n  I Load I\ndir init V stable V\n"},
	}
	for _, c := range cases {
		if _, err := ParsePCC(c.src); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestExportParseBuiltinEquivalent(t *testing.T) {
	// The mini protocol round-trips through the format and still validates.
	p := miniProtocol()
	p2, err := ParsePCC(ExportPCC(p))
	if err != nil {
		t.Fatal(err)
	}
	if p2.Name != p.Name || len(p2.Cache.Rows) != len(p.Cache.Rows) {
		t.Error("builtin round trip mismatch")
	}
}

func TestParsedProtocolRuns(t *testing.T) {
	p, err := ParsePCC(pccSample)
	if err != nil {
		t.Fatal(err)
	}
	env := &collector{}
	cache := NewCacheInst(0, 9, p)
	dir := NewDirInst(9, p, NewMemory())
	dir.Memory().Write(2, 5)
	cache.Issue(env, CoreReq{Op: OpLoad, Addr: 2})
	req := env.take()
	dir.Deliver(env, req[0])
	resp := env.take()
	cache.Deliver(env, resp[0])
	if cache.LastLoad() != 5 {
		t.Fatalf("parsed protocol load = %d", cache.LastLoad())
	}
	if !strings.Contains(ExportPCC(p), "sync Release writeback D wait") {
		t.Error("export missing sync line")
	}
}

// TestParsePCCSharesNames pins that a parsed protocol holds one string
// per state or message name (see shareNames).
func TestParsePCCSharesNames(t *testing.T) {
	p, err := ParsePCC(pccSample)
	if err != nil {
		t.Fatal(err)
	}
	data := map[string]*byte{}
	check := func(s string) {
		if s == "" {
			return
		}
		if d, ok := data[s]; !ok {
			data[s] = unsafe.StringData(s)
		} else if d != unsafe.StringData(s) {
			t.Errorf("name %q is held in more than one string", s)
		}
	}
	for typ := range p.Msgs {
		check(string(typ))
	}
	check(string(p.AckType))
	for _, m := range []*Machine{p.Cache, p.Dir} {
		check(string(m.Init))
		for _, s := range m.Stable {
			check(string(s))
		}
		for _, r := range m.Rows {
			check(string(r.From))
			check(string(r.Next))
			check(string(r.On.Msg))
			for _, a := range r.Actions {
				check(string(a.Msg))
			}
		}
		for _, sb := range m.Sync {
			for _, ss := range [][]State{sb.Invalidate, sb.Writeback} {
				for _, s := range ss {
					check(string(s))
				}
			}
		}
	}
}
