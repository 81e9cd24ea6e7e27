package export

import (
	"strings"
	"testing"

	"heterogen/internal/core"
	"heterogen/internal/mcheck"
	"heterogen/internal/protocols"
	"heterogen/internal/spec"
)

func TestSequenceChartBasic(t *testing.T) {
	v, err := spec.NewVocab([]spec.MsgType{"GetS", "Data"})
	if err != nil {
		t.Fatal(err)
	}
	msgs := []spec.Msg{
		{Type: v.ID("GetS"), Addr: 0, Src: 0, Dst: 2},
		{Type: v.ID("Data"), Addr: 0, Src: 2, Dst: 0, Data: 7, HasData: true},
	}
	out := SequenceChart(msgs, map[spec.NodeID]string{0: "cache0", 2: "dir"}, v)
	if !strings.Contains(out, "cache0") || !strings.Contains(out, "dir") {
		t.Fatalf("missing participants:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want header + 2 rows:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "GetS a0") || !strings.Contains(lines[1], ">") {
		t.Errorf("request row wrong: %q", lines[1])
	}
	if !strings.Contains(lines[2], "Data a0=7") || !strings.Contains(lines[2], "<") {
		t.Errorf("response row wrong: %q", lines[2])
	}
}

// TestSequenceChartFigure8 renders the cross-cluster write-propagation
// flow (Figure 8) from a live scripted execution.
func TestSequenceChartFigure8(t *testing.T) {
	f, err := core.Fuse(core.Options{},
		protocols.MustByName(protocols.NameRCC), protocols.MustByName(protocols.NameMSI))
	if err != nil {
		t.Fatal(err)
	}
	sys, layout := core.BuildSystem(f, []int{1, 1})
	var msgs []spec.Msg
	sys.OnDeliver = func(m spec.Msg) { msgs = append(msgs, m) }
	sys.SetPrograms([][]spec.CoreReq{
		{{Op: spec.OpStore, Addr: 0, Value: 1}, {Op: spec.OpRelease}},
		{{Op: spec.OpLoad, Addr: 0}},
	})
	for _, mv := range []mcheck.Move{
		{Kind: mcheck.MoveIssue, Core: 1},
		{Kind: mcheck.MoveIssue, Core: 0},
	} {
		if !sys.Apply(mv) {
			t.Fatal("issue failed")
		}
		if err := sys.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	if !sys.Apply(mcheck.Move{Kind: mcheck.MoveIssue, Core: 0}) {
		t.Fatal("release refused")
	}
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	names := map[spec.NodeID]string{
		0: "P4(RC)", 1: "P1(SC)",
		layout.Merged.DirID(0): "dirRC", layout.Merged.DirID(1): "dirSC",
	}
	chart := SequenceChart(msgs, names, f.Vocab())
	// The propagated write-back must invalidate the SC cache: an Inv row
	// and the WB row both appear.
	if !strings.Contains(chart, "WB") || !strings.Contains(chart, "Inv") {
		t.Errorf("Figure 8 flow missing WB/Inv rows:\n%s", chart)
	}
	if len(msgs) < 6 {
		t.Errorf("too few messages recorded: %d", len(msgs))
	}
}
