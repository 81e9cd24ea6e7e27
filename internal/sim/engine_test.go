package sim

import (
	"testing"

	"heterogen/internal/core"
	"heterogen/internal/spec"
	"heterogen/internal/workload"
)

func buildSim(t *testing.T) *Sim {
	t.Helper()
	cfg := tinyConfig()
	f := tinyFusion(t, core.HSNone)
	traces := make([]workload.CoreTrace, cfg.Cores())
	for i := range traces {
		traces[i] = workload.CoreTrace{}
	}
	s, err := New(cfg, f, &workload.Workload{Name: "unit", Traces: traces})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestChannelOrderingAndSerialization(t *testing.T) {
	s := buildSim(t)
	// Two back-to-back data messages on one channel: the second's arrival
	// must not precede the first's, and serialization spaces them by the
	// flit count.
	m := spec.Msg{Type: s.fusion.Vocab().ID("Data"), Addr: 0, Src: 0, Dst: 1, HasData: true, VNet: spec.VResp}
	s.Send(m)
	s.Send(m)
	if len(s.events) != 2 {
		t.Fatalf("%d events scheduled", len(s.events))
	}
	a, b := s.events[0].at, s.events[1].at
	if b < a {
		a, b = b, a
	}
	if b-a < uint64(s.Cfg.Flits(true)) {
		t.Errorf("serialization gap = %d, want ≥ %d flits", b-a, s.Cfg.Flits(true))
	}
	if s.Stats.Messages != 2 || s.Stats.DataMsgs != 2 {
		t.Errorf("stats = %+v", s.Stats)
	}
}

func TestLatencyChargesL2AndColdMemory(t *testing.T) {
	s := buildSim(t)
	dirID := s.merged.DirID(0)
	toDir := spec.Msg{Type: s.fusion.Vocab().ID("GetS"), Addr: 0, Src: 0, Dst: dirID, VNet: spec.VReq}
	lat := s.latency(toDir)
	if lat < uint64(s.Cfg.L2Latency) {
		t.Errorf("directory access latency %d missing the L2 charge", lat)
	}
	// First data response from the directory pays the memory latency;
	// the second (same address) does not.
	fromDir := spec.Msg{Type: s.fusion.Vocab().ID("Data"), Addr: 0, Src: dirID, Dst: 0, HasData: true, VNet: spec.VResp}
	first := s.latency(fromDir)
	second := s.latency(fromDir)
	if first < uint64(s.Cfg.MemLatency) {
		t.Errorf("cold access latency %d missing the memory charge", first)
	}
	if second >= first {
		t.Errorf("warm access (%d) not cheaper than cold (%d)", second, first)
	}
}

func TestXYDistanceAffectsLatency(t *testing.T) {
	s := buildSim(t)
	near := spec.Msg{Type: s.fusion.Vocab().ID("Data"), Addr: 0, Src: 0, Dst: 1, VNet: spec.VResp}
	far := spec.Msg{Type: s.fusion.Vocab().ID("Data"), Addr: 0, Src: 0, Dst: spec.NodeID(s.Cfg.Cores() - 1), VNet: spec.VResp}
	if s.latency(far) <= s.latency(near) {
		t.Errorf("far latency %d not greater than near %d", s.latency(far), s.latency(near))
	}
}

func TestBankTileByAddress(t *testing.T) {
	s := buildSim(t)
	a := s.bankTile(0)
	b := s.bankTile(1)
	if a == b {
		t.Error("consecutive addresses mapped to the same bank column")
	}
	if a != s.bankTile(spec.Addr(s.Cfg.L2Banks)) {
		t.Error("bank mapping not modular")
	}
}

func TestEmptyWorkloadFinishesAtCycleZero(t *testing.T) {
	s := buildSim(t)
	st, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles != 0 || st.Messages != 0 {
		t.Errorf("empty workload stats = %+v", st)
	}
}

func TestMismatchedTraceCountRejected(t *testing.T) {
	cfg := tinyConfig()
	f := tinyFusion(t, core.HSNone)
	_, err := New(cfg, f, &workload.Workload{Name: "bad", Traces: make([]workload.CoreTrace, 3)})
	if err == nil {
		t.Error("mismatched trace count accepted")
	}
}
