package protocols

import (
	"testing"

	"heterogen/internal/spec"
)

func TestMOESIValidates(t *testing.T) {
	p := MustByName(NameMOESI)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.Cache.States()) < 15 {
		t.Errorf("MOESI cache has %d states, expected the full transient lattice", len(p.Cache.States()))
	}
}

func TestMOESIOwnedStateServesReads(t *testing.T) {
	p := MustByName(NameMOESI)
	// M downgrades to O (not S) on a forwarded read and keeps serving.
	m := p.Cache
	fwd := &spec.Msg{Type: p.MsgID(MsgFwdGetS)}
	tr := m.MsgStep(m.StateID("M"), fwd, spec.MsgCtx{})
	if tr == nil || tr.Row.Next != "O" {
		t.Fatalf("M on FwdGetS = %v, want O", tr)
	}
	tr = m.MsgStep(m.StateID("O"), fwd, spec.MsgCtx{})
	if tr == nil || tr.Row.Next != "O" {
		t.Fatalf("O on FwdGetS = %v, want O", tr)
	}
	// No write-back to the directory on the downgrade (that is the point
	// of Owned).
	for _, a := range m.MsgStep(m.StateID("M"), fwd, spec.MsgCtx{}).Acts {
		if a.Op == spec.ActSend && a.Dst == spec.ToDir {
			t.Error("M→O downgrade writes back to the directory")
		}
	}
}

func TestMOESIRegisteredInTableI(t *testing.T) {
	p, err := ByName(NameMOESI)
	if err != nil {
		t.Fatal(err)
	}
	if p.Model != "SC" {
		t.Errorf("MOESI model = %s", p.Model)
	}
}
