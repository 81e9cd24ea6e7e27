package mcheck

import (
	"testing"

	"heterogen/internal/memmodel"
	"heterogen/internal/protocols"
	"heterogen/internal/spec"
)

// reqsFor translates a memmodel program to core requests plus load keys,
// using the generic synchronization mapping: acquire-load → Acquire;Load,
// release-store → Release;Store;Release, fence → Fence.
func reqsFor(p *memmodel.Program) ([][]spec.CoreReq, [][]string) {
	addrs := map[string]spec.Addr{}
	for i, a := range p.Addrs() {
		addrs[a] = spec.Addr(i)
	}
	progs := make([][]spec.CoreReq, len(p.Threads))
	keys := make([][]string, len(p.Threads))
	for t, ops := range p.Threads {
		for _, op := range ops {
			switch op.Kind {
			case memmodel.Load:
				if op.Ord == memmodel.Acquire {
					progs[t] = append(progs[t], spec.CoreReq{Op: spec.OpAcquire})
				}
				progs[t] = append(progs[t], spec.CoreReq{Op: spec.OpLoad, Addr: addrs[op.Addr]})
				keys[t] = append(keys[t], memmodel.LoadKey(op))
			case memmodel.Store:
				if op.Ord == memmodel.Release {
					progs[t] = append(progs[t], spec.CoreReq{Op: spec.OpRelease})
				}
				progs[t] = append(progs[t], spec.CoreReq{Op: spec.OpStore, Addr: addrs[op.Addr], Value: op.Value})
				if op.Ord == memmodel.Release {
					progs[t] = append(progs[t], spec.CoreReq{Op: spec.OpRelease})
				}
			case memmodel.Fence:
				progs[t] = append(progs[t], spec.CoreReq{Op: spec.OpFence})
			}
		}
	}
	return progs, keys
}

// run model-checks the program on a homogeneous system of the named
// protocol and returns the result.
func run(t *testing.T, proto string, p *memmodel.Program, evictions bool) *Result {
	return runWarm(t, proto, p, evictions, false)
}

// runWarm is run with optional cache preloading (§VII-B methodology).
func runWarm(t *testing.T, proto string, p *memmodel.Program, evictions, warm bool) *Result {
	t.Helper()
	pr := protocols.MustByName(proto)
	progs, keys := reqsFor(p)
	sys := NewHomogeneous(pr, len(p.Threads))
	sys.SetPrograms(progs)
	if warm {
		addrs := make([]spec.Addr, len(p.Addrs()))
		for i := range addrs {
			addrs[i] = spec.Addr(i)
		}
		if err := sys.Warm(addrs); err != nil {
			t.Fatalf("%s: warm: %v", proto, err)
		}
	}
	res := Explore(sys, Options{Evictions: evictions, LoadKeys: keys})
	if res.Truncated {
		t.Fatalf("%s: state space truncated at %d states", proto, res.States)
	}
	if res.Deadlocks > 0 {
		t.Fatalf("%s: %d deadlocks (first: %s)", proto, res.Deadlocks, res.DeadlockAt)
	}
	return res
}

// checkConforms asserts every observable outcome is allowed by the model
// and (optionally) that a specific outcome is observable / not observable.
func checkConforms(t *testing.T, proto string, res *Result, p *memmodel.Program, m memmodel.Model) {
	t.Helper()
	allowed := memmodel.AllowedOutcomes(p, m)
	for k := range res.Outcomes {
		if _, ok := allowed[k]; !ok {
			t.Errorf("%s exhibits outcome %q forbidden by %s (allowed: %v)", proto, k, m.ID(), allowed.Keys())
		}
	}
	if len(res.Outcomes) == 0 {
		t.Errorf("%s produced no outcomes", proto)
	}
}

func sb() *memmodel.Program {
	return memmodel.NewProgram(
		[]*memmodel.Op{memmodel.St("x", 1), memmodel.Ld("y")},
		[]*memmodel.Op{memmodel.St("y", 1), memmodel.Ld("x")},
	)
}

func sbFences() *memmodel.Program {
	return memmodel.NewProgram(
		[]*memmodel.Op{memmodel.St("x", 1), memmodel.Fn(), memmodel.Ld("y")},
		[]*memmodel.Op{memmodel.St("y", 1), memmodel.Fn(), memmodel.Ld("x")},
	)
}

func mpPlain() *memmodel.Program {
	return memmodel.NewProgram(
		[]*memmodel.Op{memmodel.St("x", 1), memmodel.St("y", 1)},
		[]*memmodel.Op{memmodel.Ld("y"), memmodel.Ld("x")},
	)
}

func mpSync() *memmodel.Program {
	return memmodel.NewProgram(
		[]*memmodel.Op{memmodel.St("x", 1), memmodel.StRel("y", 1)},
		[]*memmodel.Op{memmodel.LdAcq("y"), memmodel.Ld("x")},
	)
}

func outcome(pairs map[string]int) memmodel.Outcome { return memmodel.Outcome(pairs) }

func TestMSIEnforcesSCOnSB(t *testing.T) {
	p := sb()
	res := run(t, protocols.NameMSI, p, false)
	checkConforms(t, "MSI", res, p, memmodel.MustByID(memmodel.SC))
	if res.Outcomes.Has(outcome(map[string]int{"T0:1": 0, "T1:1": 0})) {
		t.Error("MSI exhibits the both-zero Dekker outcome")
	}
	// All three SC outcomes should be reachable.
	if len(res.Outcomes) != 3 {
		t.Errorf("MSI SB outcomes = %v, want all 3 SC outcomes", res.Outcomes.Keys())
	}
}

func TestMSIWithEvictions(t *testing.T) {
	p := mpPlain()
	res := run(t, protocols.NameMSI, p, true)
	checkConforms(t, "MSI", res, p, memmodel.MustByID(memmodel.SC))
}

func TestMESIEnforcesSC(t *testing.T) {
	for _, prog := range []*memmodel.Program{sb(), mpPlain()} {
		res := run(t, protocols.NameMESI, prog, false)
		checkConforms(t, "MESI", res, prog, memmodel.MustByID(memmodel.SC))
	}
}

func TestMESIWithEvictions(t *testing.T) {
	res := run(t, protocols.NameMESI, sb(), true)
	checkConforms(t, "MESI", res, sb(), memmodel.MustByID(memmodel.SC))
}

func TestMSISWMRInvariant(t *testing.T) {
	pr := protocols.MustByName(protocols.NameMSI)
	progs, keys := reqsFor(sb())
	sys := NewHomogeneous(pr, 2)
	sys.SetPrograms(progs)
	res := Explore(sys, Options{LoadKeys: keys, Evictions: true,
		Invariants: []Invariant{SWMRInvariant("M")}})
	if len(res.Violations) > 0 {
		t.Fatalf("SWMR violations: %v", res.Violations)
	}
}

func TestMESISWMRInvariant(t *testing.T) {
	pr := protocols.MustByName(protocols.NameMESI)
	progs, keys := reqsFor(sb())
	sys := NewHomogeneous(pr, 2)
	sys.SetPrograms(progs)
	res := Explore(sys, Options{LoadKeys: keys,
		Invariants: []Invariant{SWMRInvariant("M", "E")}})
	if len(res.Violations) > 0 {
		t.Fatalf("SWMR violations: %v", res.Violations)
	}
}

func TestTSOCCAllowsSBRelaxation(t *testing.T) {
	// With preloaded (stale-able) shared copies, the W→R relaxation is
	// observable: each thread's load hits its stale copy.
	p := sb()
	res := runWarm(t, protocols.NameTSOCC, p, false, true)
	checkConforms(t, "TSO-CC", res, p, memmodel.MustByID(memmodel.TSO))
	if !res.Outcomes.Has(outcome(map[string]int{"T0:1": 0, "T1:1": 0})) {
		t.Error("TSO-CC never exhibits the both-zero SB outcome (should under TSO)")
	}
}

func TestTSOCCFenceForbidsSB(t *testing.T) {
	p := sbFences()
	res := runWarm(t, protocols.NameTSOCC, p, false, true)
	checkConforms(t, "TSO-CC", res, p, memmodel.MustByID(memmodel.TSO))
	if res.Outcomes.Has(outcome(map[string]int{"T0:2": 0, "T1:2": 0})) {
		t.Error("TSO-CC exhibits both-zero SB despite fences")
	}
}

func TestTSOCCMessagePassing(t *testing.T) {
	// TSO preserves W→W and R→R, so MP's stale outcome must stay
	// unobservable even with preloaded copies and evictions.
	p := mpPlain()
	res := runWarm(t, protocols.NameTSOCC, p, true, true)
	checkConforms(t, "TSO-CC", res, p, memmodel.MustByID(memmodel.TSO))
	if res.Outcomes.Has(outcome(map[string]int{"T1:0": 1, "T1:1": 0})) {
		t.Error("TSO-CC exhibits stale MP (flag=1, data=0)")
	}
}

func rcProtos() []string {
	return []string{protocols.NameRCC, protocols.NameRCCO, protocols.NameGPU}
}

func TestRCProtocolsAllowStaleMPWithoutSync(t *testing.T) {
	p := mpPlain()
	for _, name := range rcProtos() {
		res := run(t, name, p, false)
		checkConforms(t, name, res, p, memmodel.MustByID(memmodel.RC))
	}
}

func TestRCProtocolsOrderSyncMP(t *testing.T) {
	p := mpSync()
	for _, name := range rcProtos() {
		res := run(t, name, p, false)
		checkConforms(t, name, res, p, memmodel.MustByID(memmodel.RC))
		if res.Outcomes.Has(outcome(map[string]int{"T1:0": 1, "T1:1": 0})) {
			t.Errorf("%s exhibits stale MP despite release/acquire", name)
		}
	}
}

func TestRCCStaleReadObservable(t *testing.T) {
	// The hallmark RC relaxation (Figure 6's t3): a consumer holding a
	// stale valid copy of the data keeps reading it — without an acquire —
	// even after it observes the released flag.
	progs := [][]spec.CoreReq{
		{{Op: spec.OpStore, Addr: 0, Value: 1}, {Op: spec.OpStore, Addr: 1, Value: 1}, {Op: spec.OpRelease}},
		{{Op: spec.OpLoad, Addr: 1}, {Op: spec.OpLoad, Addr: 0}},
	}
	sys := NewHomogeneous(protocols.MustByName(protocols.NameRCC), 2)
	sys.SetPrograms(progs)
	// Preload only the data address, so the flag load misses (and can see
	// the release) while the data load hits the stale copy.
	if err := sys.Warm([]spec.Addr{0}); err != nil {
		t.Fatal(err)
	}
	res := Explore(sys, Options{})
	if res.Deadlocks > 0 {
		t.Fatalf("deadlocks: %d", res.Deadlocks)
	}
	if !res.Outcomes.Has(outcome(map[string]int{"T1:0": 1, "T1:1": 0})) {
		t.Errorf("RCC never exhibits the unsynchronized stale read; outcomes: %v", res.Outcomes.Keys())
	}
}

func TestPLOCCConformsToPLO(t *testing.T) {
	for _, p := range []*memmodel.Program{sb(), mpPlain()} {
		res := run(t, protocols.NamePLOCC, p, false)
		checkConforms(t, "PLO-CC", res, p, memmodel.MustByID(memmodel.PLO))
	}
}

func TestPLOCCFenceRestoresSB(t *testing.T) {
	p := sbFences()
	res := run(t, protocols.NamePLOCC, p, false)
	if res.Outcomes.Has(outcome(map[string]int{"T0:2": 0, "T1:2": 0})) {
		t.Error("PLO-CC exhibits both-zero SB despite fences")
	}
}

func TestGPUEarlyAckDrainsOnRelease(t *testing.T) {
	// Producer: St x; Rel; St flag through WT. Consumer acquires flag and
	// must see x.
	p := mpSync()
	res := run(t, protocols.NameGPU, p, false)
	if res.Outcomes.Has(outcome(map[string]int{"T1:0": 1, "T1:1": 0})) {
		t.Error("GPU write-throughs not drained by release")
	}
}

func TestThreeCachesDeadlockFreedom(t *testing.T) {
	// One writer, two readers, with evictions: a wider reachability check.
	prog := memmodel.NewProgram(
		[]*memmodel.Op{memmodel.St("x", 1)},
		[]*memmodel.Op{memmodel.Ld("x")},
		[]*memmodel.Op{memmodel.Ld("x"), memmodel.St("x", 2)},
	)
	for _, name := range protocols.Names() {
		res := run(t, name, prog, true)
		if res.States == 0 {
			t.Errorf("%s: empty state space", name)
		}
	}
}

func TestTwoAddressDeadlockFreedom(t *testing.T) {
	prog := memmodel.NewProgram(
		[]*memmodel.Op{memmodel.St("x", 1), memmodel.Ld("y")},
		[]*memmodel.Op{memmodel.St("y", 1), memmodel.St("x", 2)},
	)
	for _, name := range protocols.Names() {
		res := run(t, name, prog, true)
		if res.States == 0 {
			t.Errorf("%s: empty state space", name)
		}
	}
}

func TestHashCompactionAgreesOnSmallSpace(t *testing.T) {
	pr := protocols.MustByName(protocols.NameMSI)
	progs, keys := reqsFor(sb())
	a := NewHomogeneous(pr, 2)
	a.SetPrograms(progs)
	full := Explore(a, Options{LoadKeys: keys})
	b := NewHomogeneous(pr, 2)
	b.SetPrograms(progs)
	hashed := Explore(b, Options{LoadKeys: keys, HashCompaction: true})
	if full.States != hashed.States {
		t.Errorf("hash compaction changed state count: %d vs %d", full.States, hashed.States)
	}
}

func TestMaxStatesTruncates(t *testing.T) {
	pr := protocols.MustByName(protocols.NameMSI)
	progs, keys := reqsFor(sb())
	sys := NewHomogeneous(pr, 2)
	sys.SetPrograms(progs)
	res := Explore(sys, Options{LoadKeys: keys, MaxStates: 3})
	if !res.Truncated {
		t.Error("MaxStates did not truncate")
	}
	if res.Ok() {
		t.Error("truncated result reported Ok")
	}
}

func TestQuiescentInitialState(t *testing.T) {
	pr := protocols.MustByName(protocols.NameMSI)
	sys := NewHomogeneous(pr, 2)
	if !sys.Quiescent() {
		t.Error("empty system not quiescent")
	}
	res := Explore(sys, Options{})
	if res.States != 1 || res.Deadlocks != 0 {
		t.Errorf("empty system: states=%d deadlocks=%d", res.States, res.Deadlocks)
	}
}

func TestSingleOwnerInvariantViaSearch(t *testing.T) {
	pr := protocols.MustByName(protocols.NameRCCO)
	progs := [][]spec.CoreReq{
		{{Op: spec.OpStore, Addr: 0, Value: 1}},
		{{Op: spec.OpStore, Addr: 0, Value: 2}},
	}
	sys := NewHomogeneous(pr, 2)
	sys.SetPrograms(progs)
	res := Explore(sys, Options{Invariants: []Invariant{SingleOwnerInvariant("O")}})
	if !res.Ok() {
		t.Fatalf("RCC-O violates single-owner: %v", res.Violations)
	}
}

func TestMoveString(t *testing.T) {
	for _, m := range []Move{
		{Kind: MoveDeliver, Chan: chanKey{1, 2, 0}},
		{Kind: MoveIssue, Core: 3},
		{Kind: MoveEvict, Cache: 1, Addr: 4},
	} {
		if m.String() == "" || m.String() == "move?" {
			t.Errorf("bad move string for %+v", m)
		}
	}
}
