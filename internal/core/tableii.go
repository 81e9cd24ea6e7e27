package core

import (
	"fmt"
	"strings"

	"heterogen/internal/spec"
)

// TableIIPairs returns the eight case-study fusions of Table II.
func TableIIPairs() [][2]string {
	return [][2]string{
		{"MSI", "MSI"},
		{"MESI", "TSO-CC"},
		{"MESI", "PLO-CC"},
		{"MESI", "RCC-O"},
		{"MESI", "RCC"},
		{"MESI", "GPU"},
		{"RCC-O", "RCC"},
		{"RCC", "RCC"},
	}
}

// tableIIDriver is the workload that exercises the merged directory for
// FSM enumeration: every core stores, loads and (via the checker's
// eviction exploration) replaces both addresses, so all bridge flavors
// fire — write propagation, read fetch, write-backs, and the races between
// them.
func tableIIDriver() [][]spec.CoreReq {
	return [][]spec.CoreReq{
		{
			{Op: spec.OpStore, Addr: 0, Value: 1},
			{Op: spec.OpLoad, Addr: 1},
			{Op: spec.OpStore, Addr: 1, Value: 2},
		},
		{
			{Op: spec.OpStore, Addr: 1, Value: 3},
			{Op: spec.OpRelease},
			{Op: spec.OpAcquire},
			{Op: spec.OpLoad, Addr: 0},
			{Op: spec.OpStore, Addr: 0, Value: 4},
		},
	}
}

// TableIIEntry is one enumerated row: the merged directory's reachable
// composite states and transitions under the driver workload. The row
// holds counts only; EnumerateCompiled returns the extraction's deadlock
// verdict alongside it.
type TableIIEntry struct {
	Pair        string
	States      int
	Transitions int
	Explored    int // system states visited by the checker
}

// TableIICompileConfig is the Table II extraction configuration: one cache
// per cluster driven by the standard enumeration workload, full coverage
// unless quick. Exported so CLIs can set the extraction parallelism
// (workers as in mcheck.Options: 0 = all cores).
func TableIICompileConfig(quick bool, workers int) CompileConfig {
	return CompileConfig{
		CachesPerCluster: []int{1, 1},
		Programs:         tableIIDriver(),
		Evictions:        !quick,
		Workers:          workers,
	}
}

// EnumerateCompiled compiles the fusion for the Table II configuration on
// the given number of workers (as in mcheck.Options: 0 = all cores) and
// returns the row derived from the compiled flat table (its FlatFSM
// projection), alongside the compiled fusion for further use. The full
// enumeration explores replacements at any time (§VII-B); quick mode
// skips them, trading tail states for a much smaller search.
// testdata/tableii.golden pins every row and projection. When the
// extraction reached a deadlock the row and fusion come back with the
// table's Verdict as the error.
func EnumerateCompiled(f *Fusion, quick bool, workers int) (*TableIIEntry, *CompiledFusion, error) {
	cf, err := Compile(f, TableIICompileConfig(quick, workers))
	if err != nil {
		return nil, nil, err
	}
	states, trans := cf.FlatFSM().Counts()
	return &TableIIEntry{Pair: f.Name(), States: states, Transitions: trans,
		Explored: cf.Explored()}, cf, cf.Verdict()
}

// FormatTableII renders entries like the paper's Table II.
func FormatTableII(entries []*TableIIEntry) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table II: case studies with HeteroGen directory states/transitions\n")
	fmt.Fprintf(&b, "%-3s %-16s %8s %12s %10s\n", "#", "case-study", "states", "transitions", "explored")
	for i, e := range entries {
		fmt.Fprintf(&b, "%-3d %-16s %8d %12d %10d\n", i+1, e.Pair, e.States, e.Transitions, e.Explored)
	}
	return b.String()
}
