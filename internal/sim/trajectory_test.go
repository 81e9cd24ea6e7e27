package sim

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"heterogen/internal/core"
	"heterogen/internal/protocols"
	"heterogen/internal/spec"
	"heterogen/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/trajectory.golden from the current simulator")

// trajectoryCase is one pinned simulation: a machine, a protocol pair, a
// workload point and a fusion configuration.
type trajectoryCase struct {
	name    string
	cfg     Config
	pair    [2]string
	bench   string
	ops     int
	variant Variant
	// conservative forces the processor-centric fusion design.
	conservative bool
}

// trajectoryCases spans every path through the engine's drain: the Figure
// 10 matrix on the tiny machine, a Conservative fusion, a stress family,
// two mesh sizes and a non-default Table II pair.
func trajectoryCases() []trajectoryCase {
	var cases []trajectoryCase
	add := func(tag string, cfg Config, pair [2]string, bench string, ops int, conservative bool) {
		for _, v := range Figure10Variants() {
			cases = append(cases, trajectoryCase{
				name: fmt.Sprintf("%s/%s/%s/%s", tag, pair[0]+"&"+pair[1], bench, v.Name),
				cfg:  cfg, pair: pair, bench: bench, ops: ops, variant: v, conservative: conservative})
		}
	}
	tiny := tinyConfig()
	for _, p := range workload.Benchmarks() {
		add("tiny", tiny, DefaultPair(), p.Name, 120, false)
	}
	add("tiny-conservative", tiny, DefaultPair(), "ligra-bf", 120, true)
	add("tiny-conservative", tiny, DefaultPair(), "cilk5-nq", 120, true)
	add("tiny", tiny, DefaultPair(), "fs-storm", 120, false)
	add("mesh4", TableIIIMesh(4), DefaultPair(), "ligra-tc", 120, false)
	add("mesh12", TableIIIMesh(12), DefaultPair(), "cilk5-mm", 40, false)
	add("tiny", tiny, [2]string{protocols.NameMESI, "TSO-CC"}, "ligra-bfs", 120, false)
	return cases
}

// run simulates the case and renders every Stats field as one line.
func (c trajectoryCase) run(t *testing.T) string {
	t.Helper()
	params, err := workload.BenchmarkByName(c.bench)
	if err != nil {
		t.Fatal(err)
	}
	params.OpsPerCore = c.ops
	wl := workload.Generate(params, workload.Layout{BigCores: c.cfg.BigCores, TinyCores: c.cfg.TinyCores})
	big, tiny := protocols.MustByName(c.pair[0]), protocols.MustByName(c.pair[1])
	f, err := core.Fuse(core.Options{Handshake: c.variant.Handshake, ProxyPool: c.cfg.ProxyPool,
		ForceConservative: c.conservative}, big, tiny)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(c.cfg, f, wl)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Run()
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return c.name + " " + formatStats(st)
}

// formatStats renders every Stats field, ByType in type order.
func formatStats(st *Stats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d messages=%d data=%d flits=%d hs=%d memops=%d lstall=%d sstall=%d loads=%d stores=%d types=",
		st.Cycles, st.Messages, st.DataMsgs, st.Flits, st.Handshakes, st.MemOps,
		st.LoadStall, st.StoreStall, st.Loads, st.Stores)
	types := make([]spec.MsgType, 0, len(st.ByType))
	for ty := range st.ByType {
		types = append(types, ty)
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	for i, ty := range types {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s:%d", ty, st.ByType[ty])
	}
	return b.String()
}

// TestGoldenTrajectory pins simulated behaviour message for message
// against a recorded file, so it also sees a change to the order in which
// queued heads are offered or bridges are driven. Regenerate with -update
// only for an intended behaviour change.
func TestGoldenTrajectory(t *testing.T) {
	var lines []string
	for _, c := range trajectoryCases() {
		lines = append(lines, c.run(t))
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "trajectory.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./internal/sim -run TestGoldenTrajectory -update)", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("golden has %d cases, run produced %d", len(wantLines), len(lines))
	}
	for i := range lines {
		if lines[i] != wantLines[i] {
			t.Errorf("trajectory diverged:\n got: %s\nwant: %s", lines[i], wantLines[i])
		}
	}
}
