package protocols

import (
	"sync"
	"testing"

	"heterogen/internal/memmodel"
	"heterogen/internal/spec"
)

func TestAllProtocolsValidate(t *testing.T) {
	for _, p := range All() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	for _, n := range Names() {
		p, err := ByName(n)
		if err != nil {
			t.Fatalf("ByName(%s): %v", n, err)
		}
		if p.Name != n {
			t.Errorf("ByName(%s).Name = %s", n, p.Name)
		}
	}
	if _, err := ByName("Dragon"); err == nil {
		t.Error("unknown protocol accepted")
	}
}

func TestTableIModels(t *testing.T) {
	want := map[string]memmodel.ID{
		NameMSI:   memmodel.SC,
		NameMESI:  memmodel.SC,
		NameTSOCC: memmodel.TSO,
		NameRCC:   memmodel.RC,
		NameRCCO:  memmodel.RC,
		NameGPU:   memmodel.RC,
		NamePLOCC: memmodel.PLO,
		NameMOESI: memmodel.SC,
		NameMESIF: memmodel.SC,
	}
	for _, p := range All() {
		if p.Model != want[p.Name] {
			t.Errorf("%s model = %s, want %s (Table I)", p.Name, p.Model, want[p.Name])
		}
	}
}

// TestInstancesAreIsolated takes instances from several goroutines at
// once, as hgserve's concurrent jobs do, freezes them and mutates every
// part: each instance taken afterwards must still export as its file.
// Under the race detector this also shows that ByName only reads the
// shared templates.
func TestInstancesAreIsolated(t *testing.T) {
	want := map[string]string{}
	for _, n := range Names() {
		want[n] = spec.ExportPCC(MustByName(n))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for _, n := range Names() {
					p := MustByName(n)
					p.Freeze()
					for _, m := range []*spec.Machine{p.Cache, p.Dir} {
						m.Stable[0] = "ZZZ"
						m.Rows[0].Next = "ZZZ"
						for i := range m.Rows {
							m.Rows[i].Actions = append(m.Rows[i].Actions[:0], spec.CoreDone)
						}
						for op, sb := range m.Sync {
							sb.Invalidate = append(sb.Invalidate[:0], "ZZZ")
							m.Sync[op] = sb
						}
					}
					for typ := range p.Msgs {
						p.Msgs[typ] = spec.MsgInfo{VNet: spec.VFwd, CarriesData: true}
					}
					p.AckType = "ZZZ"
					if got := spec.ExportPCC(MustByName(n)); got != want[n] {
						t.Errorf("%s: a fresh instance changed after another was mutated:\n%s", n, got)
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestSWMRProtocolsInvalidateOnWrite(t *testing.T) {
	// The SWMR family must send invalidations when a write hits shared data.
	for _, n := range []string{NameMSI, NameMESI, NameMOESI, NameMESIF} {
		p := MustByName(n)
		found := false
		for _, tr := range p.Dir.Rows {
			if tr.On.Msg == MsgGetM {
				for _, a := range tr.Actions {
					if a.Op == spec.ActInvSharers {
						found = true
					}
				}
			}
		}
		if !found {
			t.Errorf("%s directory never invalidates sharers on GetM", n)
		}
	}
}

func TestSelfInvalidatingProtocolsHaveNoInvalidations(t *testing.T) {
	for _, n := range []string{NameRCC, NameRCCO, NameGPU, NamePLOCC, NameTSOCC} {
		p := MustByName(n)
		for _, tr := range p.Dir.Rows {
			for _, a := range tr.Actions {
				if a.Op == spec.ActInvSharers {
					t.Errorf("%s directory performs writer-initiated invalidation", n)
				}
			}
		}
	}
}

func TestSyncBehaviors(t *testing.T) {
	cases := []struct {
		name    string
		op      spec.CoreOp
		inv     bool // self-invalidates some state
		wb      bool // writes back some state
		wait    bool
		present bool
	}{
		{NameRCC, spec.OpAcquire, true, false, false, true},
		{NameRCC, spec.OpRelease, false, true, true, true},
		{NameRCCO, spec.OpAcquire, true, false, false, true},
		{NameRCCO, spec.OpRelease, false, false, true, true},
		{NameGPU, spec.OpAcquire, true, false, false, true},
		{NameGPU, spec.OpRelease, false, false, true, true},
		{NameTSOCC, spec.OpFence, true, false, true, true},
		{NamePLOCC, spec.OpFence, true, false, true, true},
		{NamePLOCC, spec.OpRelease, false, false, false, false},
		{NameMSI, spec.OpFence, false, false, false, false},
	}
	for _, c := range cases {
		p := MustByName(c.name)
		sb, ok := p.Cache.Sync[c.op]
		if ok != c.present {
			t.Errorf("%s %s: declared=%t, want %t", c.name, c.op, ok, c.present)
			continue
		}
		if !ok {
			continue
		}
		if (len(sb.Invalidate) > 0) != c.inv || (len(sb.Writeback) > 0) != c.wb || sb.WaitOutstanding != c.wait {
			t.Errorf("%s %s behavior = %+v", c.name, c.op, sb)
		}
	}
}

func TestGPUStoresCompleteEarly(t *testing.T) {
	p := MustByName(NameGPU)
	// A GPU store's transition must CoreDone into a transient state.
	tr := p.Cache.OnCoreOp("I", spec.OpStore)
	if tr == nil {
		t.Fatal("GPU has no store transition from I")
	}
	done := false
	for _, a := range tr.Actions {
		if a.Op == spec.ActCoreDone {
			done = true
		}
	}
	if !done || p.Cache.IsStable(tr.Next) {
		t.Errorf("GPU store from I should complete early into a transient state, got %s", tr)
	}
}

func TestBlockingStoresCompleteOnlyWhenStable(t *testing.T) {
	// In MSI/MESI/RCC-O every CoreDone on a store path lands in a stable
	// state (no early write acknowledgment).
	for _, n := range []string{NameMSI, NameMESI, NameRCCO, NamePLOCC} {
		p := MustByName(n)
		for _, tr := range p.Cache.Rows {
			for _, a := range tr.Actions {
				if a.Op == spec.ActCoreDone && !p.Cache.IsStable(tr.Next) {
					t.Errorf("%s: early completion in %s", n, tr)
				}
			}
		}
	}
}

func TestDescribe(t *testing.T) {
	for _, p := range All() {
		if Describe(p) == "" {
			t.Errorf("empty description for %s", p.Name)
		}
	}
}

func TestMachineStatesListedStableFirst(t *testing.T) {
	p := MustByName(NameMSI)
	states := p.Cache.States()
	if states[0] != "I" || states[1] != "S" || states[2] != "M" {
		t.Errorf("MSI cache states = %v", states)
	}
	seen := map[spec.State]bool{}
	for _, s := range states {
		if seen[s] {
			t.Errorf("duplicate state %s", s)
		}
		seen[s] = true
	}
}
