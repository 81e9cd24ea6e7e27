package litmus

import (
	"sort"
	"testing"

	"heterogen/internal/core"
	"heterogen/internal/mcheck"
	"heterogen/internal/memmodel"
	"heterogen/internal/protocols"
	"heterogen/internal/spec"
)

// requireNoOutcome explores the interpreted composite running the shape
// under assign, with every interleaving (POR off), and fails if any
// quiescent outcome satisfies pred.
func requireNoOutcome(t *testing.T, pair []string, shapeName string, assign []int, pred func(memmodel.Outcome) bool) {
	t.Helper()
	f := fuse(t, pair...)
	shape, _ := ShapeByName(shapeName)
	p := shape.Prog()
	_, progsByThread, keysByThread, addrs := Translate(p, f.Compound, assign)
	perCluster := make([]int, len(f.Protocols))
	for _, c := range assign {
		perCluster[c]++
	}
	sys, _ := core.BuildSystem(f, perCluster)
	progs := make([][]spec.CoreReq, len(assign))
	keys := make([][]string, len(assign))
	base := make([]int, len(perCluster))
	for c := 1; c < len(perCluster); c++ {
		base[c] = base[c-1] + perCluster[c-1]
	}
	next := make([]int, len(perCluster))
	for ti := range p.Threads {
		c := assign[ti]
		idx := base[c] + next[c]
		next[c]++
		progs[idx] = progsByThread[ti]
		keys[idx] = keysByThread[ti]
	}
	sys.SetPrograms(progs)
	var observe []spec.Addr
	for _, a := range addrs {
		observe = append(observe, a)
	}
	sort.Slice(observe, func(i, j int) bool { return observe[i] < observe[j] })
	res := mcheck.Explore(sys, mcheck.Options{POR: mcheck.POROff, LoadKeys: keys, ObserveMem: observe})
	if res.Truncated || res.Cancelled {
		t.Fatalf("search did not run to exhaustion (%d states)", res.States)
	}
	for _, o := range res.Outcomes {
		if pred(o) {
			t.Errorf("forbidden outcome reached: %v", o)
		}
	}
}

// TestDebugLostWrite is a regression canary for the PLO proxy-fence capture
// bug: no MP execution may lose a store.
func TestDebugLostWrite(t *testing.T) {
	requireNoOutcome(t, []string{protocols.NameMESI, protocols.NamePLOCC}, "MP", []int{1, 0},
		func(o memmodel.Outcome) bool { return o["m:0"] == 0 || o["m:1"] == 0 })
}

// TestDebug22W is a regression canary for the 2+2W coherence-order
// violation on MESI&RCC-O: no execution may end with both addresses
// holding their first store's value (x = y = 1), since each thread's
// release-store follows it.
func TestDebug22W(t *testing.T) {
	requireNoOutcome(t, []string{protocols.NameMESI, protocols.NameRCCO}, "2+2W", []int{0, 1},
		func(o memmodel.Outcome) bool { return o["m:0"] == 1 && o["m:1"] == 1 })
}
