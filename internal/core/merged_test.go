package core

import (
	"strings"
	"testing"

	"heterogen/internal/armor"
	"heterogen/internal/mcheck"
	"heterogen/internal/memmodel"
	"heterogen/internal/protocols"
	"heterogen/internal/spec"
)

// adaptProgram maps each thread of an annotated litmus program onto its
// cluster's model (armor), then to core requests for the protocol runtime.
func adaptProgram(t *testing.T, f *Fusion, p *memmodel.Program, assign []int) (*memmodel.Program, [][]spec.CoreReq, [][]string) {
	t.Helper()
	adapted := make([][]*memmodel.Op, len(p.Threads))
	for i, th := range p.Threads {
		adapted[i] = armor.AdaptThread(th, f.Compound[assign[i]])
	}
	ap := memmodel.NewProgram(adapted...)

	addrs := map[string]spec.Addr{}
	for i, a := range ap.Addrs() {
		addrs[a] = spec.Addr(i)
	}
	progs := make([][]spec.CoreReq, len(ap.Threads))
	keys := make([][]string, len(ap.Threads))
	for ti, ops := range ap.Threads {
		for _, op := range ops {
			switch op.Kind {
			case memmodel.Load:
				if op.Ord == memmodel.Acquire {
					progs[ti] = append(progs[ti], spec.CoreReq{Op: spec.OpAcquire})
				}
				progs[ti] = append(progs[ti], spec.CoreReq{Op: spec.OpLoad, Addr: addrs[op.Addr]})
				keys[ti] = append(keys[ti], memmodel.LoadKey(op))
			case memmodel.Store:
				if op.Ord == memmodel.Release {
					progs[ti] = append(progs[ti], spec.CoreReq{Op: spec.OpRelease})
				}
				progs[ti] = append(progs[ti], spec.CoreReq{Op: spec.OpStore, Addr: addrs[op.Addr], Value: op.Value})
				if op.Ord == memmodel.Release {
					progs[ti] = append(progs[ti], spec.CoreReq{Op: spec.OpRelease})
				}
			case memmodel.Fence:
				progs[ti] = append(progs[ti], spec.CoreReq{Op: spec.OpFence})
			}
		}
	}
	return ap, progs, keys
}

// checkFused model-checks an annotated program on the fusion of the two
// named protocols (thread t on cluster t%2 unless assign is given) and
// verifies: no deadlock, and every observable outcome is allowed by the
// compound model. It returns the observed outcomes and the adapted program.
func checkFused(t *testing.T, names []string, p *memmodel.Program, opts Options, evictions bool) (memmodel.OutcomeSet, *memmodel.Program, *memmodel.Compound) {
	t.Helper()
	var protos []*spec.Protocol
	for _, n := range names {
		protos = append(protos, protocols.MustByName(n))
	}
	f, err := Fuse(opts, protos...)
	if err != nil {
		t.Fatalf("Fuse(%v): %v", names, err)
	}
	// One cache per cluster per thread mapped there.
	perCluster := make([]int, len(names))
	var assign []int
	for i := range p.Threads {
		assign = append(assign, i%len(names))
		perCluster[i%len(names)]++
	}
	ap, progsByThread, keysByThread := adaptProgram(t, f, p, assign)

	sys, layout := BuildSystem(f, perCluster)
	// BuildSystem lays out caches cluster-major; remap thread programs to
	// core indexes (core order is cluster-major too).
	progs := make([][]spec.CoreReq, len(assign))
	keys := make([][]string, len(assign))
	nextInCluster := map[int]int{}
	coreIdx := func(cluster, k int) int {
		idx := 0
		for c := 0; c < cluster; c++ {
			idx += len(layout.CacheIDs[c])
		}
		return idx + k
	}
	for ti := range ap.Threads {
		c := assign[ti]
		k := nextInCluster[c]
		nextInCluster[c] = k + 1
		progs[coreIdx(c, k)] = progsByThread[ti]
		keys[coreIdx(c, k)] = keysByThread[ti]
	}
	sys.SetPrograms(progs)

	res := mcheck.Explore(sys, mcheck.Options{Evictions: evictions, LoadKeys: keys})
	if res.Truncated {
		t.Fatalf("%v: truncated at %d states", names, res.States)
	}
	if res.Deadlocks > 0 {
		t.Fatalf("%v: %d deadlocks\nfirst: %s", names, res.Deadlocks, res.DeadlockAt)
	}

	// Core order == thread order only if assignment is the interleaved one
	// used above; build the compound over the core order.
	coreAssign := make([]int, 0, len(assign))
	for c := range layout.CacheIDs {
		for range layout.CacheIDs[c] {
			coreAssign = append(coreAssign, c)
		}
	}
	_ = coreAssign
	cm, err := f.CompoundModel(assign)
	if err != nil {
		t.Fatal(err)
	}
	allowed := memmodel.AllowedOutcomes(ap, cm)
	for k := range res.Outcomes {
		if _, ok := allowed[k]; !ok {
			t.Errorf("%v: outcome %q forbidden by compound %s\nallowed: %v", names, k, cm.ID(), allowed.Keys())
		}
	}
	if len(res.Outcomes) == 0 {
		t.Errorf("%v: no outcomes observed", names)
	}
	return res.Outcomes, ap, cm
}

func sbProg() *memmodel.Program {
	return memmodel.NewProgram(
		[]*memmodel.Op{memmodel.St("x", 1), memmodel.Ld("y")},
		[]*memmodel.Op{memmodel.St("y", 1), memmodel.Ld("x")},
	)
}

func mpAnnotated() *memmodel.Program {
	return memmodel.NewProgram(
		[]*memmodel.Op{memmodel.St("x", 1), memmodel.StRel("y", 1)},
		[]*memmodel.Op{memmodel.LdAcq("y"), memmodel.Ld("x")},
	)
}

// TestFusedMSIMSI fuses two SC clusters: the composite must still be SC.
func TestFusedMSIMSI(t *testing.T) {
	out, ap, _ := checkFused(t, []string{protocols.NameMSI, protocols.NameMSI}, sbProg(), Options{}, false)
	loads := ap.Loads()
	bothZero := memmodel.Outcome{memmodel.LoadKey(loads[0]): 0, memmodel.LoadKey(loads[1]): 0}
	if out.Has(bothZero) {
		t.Error("MSI&MSI exhibits both-zero SB (SC violation)")
	}
}

// TestFusedMESIRCCOMessagePassing is the headline pair (HCC comparison):
// MESI (SC) fused with RCC-O (RC, DeNovo-like).
func TestFusedMESIRCCOMessagePassing(t *testing.T) {
	// Producer on the RC cluster (thread 1), consumer on SC (thread 0):
	// consumer needs no sync; producer uses a release.
	p := memmodel.NewProgram(
		[]*memmodel.Op{memmodel.Ld("y"), memmodel.Ld("x")},          // SC consumer
		[]*memmodel.Op{memmodel.St("x", 1), memmodel.StRel("y", 1)}, // RC producer
	)
	out, ap, _ := checkFused(t, []string{protocols.NameMESI, protocols.NameRCCO}, p, Options{}, false)
	loads := ap.Loads()
	stale := memmodel.Outcome{memmodel.LoadKey(loads[0]): 1, memmodel.LoadKey(loads[1]): 0}
	if out.Has(stale) {
		t.Error("MESI&RCC-O: SC consumer observed flag=1 with stale data=0 despite RC release")
	}
}

// TestFigure3Fused reproduces Figure 3 on a fused SC×TSO machine
// (MSI & TSO-CC): Dekker's outcome is possible without the TSO-side fence
// and impossible with it.
func TestFigure3Fused(t *testing.T) {
	names := []string{protocols.NameMSI, protocols.NameTSOCC}
	// (a) no fences: both-zero allowed by the compound model.
	outA, apA, cmA := checkFused(t, names, sbProg(), Options{}, false)
	loadsA := apA.Loads()
	bothZeroA := memmodel.Outcome{memmodel.LoadKey(loadsA[0]): 0, memmodel.LoadKey(loadsA[1]): 0}
	if !memmodel.AllowedOutcomes(apA, cmA).Has(bothZeroA) {
		t.Fatal("compound SCxTSO should allow both-zero Dekker without fences")
	}
	_ = outA // observability depends on cold caches; conformance already checked

	// (b) fence on the TSO thread only: both-zero forbidden — and must not
	// be observable.
	pb := memmodel.NewProgram(
		[]*memmodel.Op{memmodel.St("x", 1), memmodel.Ld("y")},
		[]*memmodel.Op{memmodel.St("y", 1), memmodel.Fn(), memmodel.Ld("x")},
	)
	outB, apB, _ := checkFused(t, names, pb, Options{}, false)
	loadsB := apB.Loads()
	bothZeroB := memmodel.Outcome{memmodel.LoadKey(loadsB[0]): 0, memmodel.LoadKey(loadsB[1]): 0}
	if outB.Has(bothZeroB) {
		t.Error("Figure 3(b): fused SCxTSO exhibits both-zero despite the TSO fence")
	}
}

// TestFusedPairsConform sweeps the Table II case-study pairs on MP and SB.
func TestFusedPairsConform(t *testing.T) {
	pairs := [][]string{
		{protocols.NameMSI, protocols.NameMSI},
		{protocols.NameMESI, protocols.NameTSOCC},
		{protocols.NameMESI, protocols.NamePLOCC},
		{protocols.NameMESI, protocols.NameRCCO},
		{protocols.NameMESI, protocols.NameRCC},
		{protocols.NameMESI, protocols.NameGPU},
		{protocols.NameRCCO, protocols.NameRCC},
		{protocols.NameRCC, protocols.NameRCC},
	}
	for _, pair := range pairs {
		pair := pair
		t.Run(pair[0]+"_"+pair[1], func(t *testing.T) {
			t.Parallel()
			checkFused(t, pair, mpAnnotated(), Options{}, false)
			checkFused(t, pair, sbProg(), Options{}, false)
		})
	}
}

// TestFusedWithEvictions stresses replacement races across the bridge.
func TestFusedWithEvictions(t *testing.T) {
	p := memmodel.NewProgram(
		[]*memmodel.Op{memmodel.St("x", 1)},
		[]*memmodel.Op{memmodel.Ld("x"), memmodel.St("x", 2)},
	)
	for _, pair := range [][]string{
		{protocols.NameMSI, protocols.NameRCC},
		{protocols.NameMESI, protocols.NameRCCO},
		{protocols.NameMESI, protocols.NameGPU},
	} {
		checkFused(t, pair, p, Options{}, true)
	}
}

// TestFusedHandshakeVariants checks the §VIII variants stay correct.
func TestFusedHandshakeVariants(t *testing.T) {
	for _, hs := range []HandshakeMode{HSWrites, HSAll} {
		checkFused(t, []string{protocols.NameMESI, protocols.NameRCCO}, mpAnnotated(), Options{Handshake: hs}, false)
	}
}

// TestFusedConservativeGPU exercises the conservative processor-centric
// design (GPU early write acks force it).
func TestFusedConservativeGPU(t *testing.T) {
	out, ap, _ := checkFused(t, []string{protocols.NameMESI, protocols.NameGPU}, mpAnnotated(), Options{}, false)
	loads := ap.Loads()
	stale := memmodel.Outcome{memmodel.LoadKey(loads[0]): 1, memmodel.LoadKey(loads[1]): 0}
	if out.Has(stale) {
		t.Error("MESI&GPU: stale MP observed despite release/acquire")
	}
}

// TestThreeClusterFusion fuses three protocols (§VI-D3).
func TestThreeClusterFusion(t *testing.T) {
	p := memmodel.NewProgram(
		[]*memmodel.Op{memmodel.St("x", 1), memmodel.StRel("y", 1)},
		[]*memmodel.Op{memmodel.LdAcq("y"), memmodel.Ld("x")},
		[]*memmodel.Op{memmodel.LdAcq("y"), memmodel.Ld("x")},
	)
	out, ap, _ := checkFused(t, []string{protocols.NameMSI, protocols.NameRCCO, protocols.NameTSOCC}, p, Options{}, false)
	// Any consumer that saw the flag must see the data (checked against the
	// compound model inside checkFused; spot-check the MP pairs here too).
	loads := ap.Loads()
	for _, o := range out {
		for i := 0; i+1 < len(loads); i += 2 {
			flag, data := loads[i], loads[i+1]
			if o[memmodel.LoadKey(flag)] == 1 && o[memmodel.LoadKey(data)] == 0 {
				t.Errorf("three-cluster MP: consumer %d saw flag without data in %s", flag.Thread, o.Key())
			}
		}
	}
}

// TestFigure9DirectoryStates reproduces the VxS → VxSI → VxI walk of
// Figure 9: an RC-cluster write-back reaching the merged directory
// invalidates the SC cluster's sharers before completing.
func TestFigure9DirectoryStates(t *testing.T) {
	f, err := Fuse(Options{},
		protocols.MustByName(protocols.NameRCC), // cluster 0: RC (V states)
		protocols.MustByName(protocols.NameMSI)) // cluster 1: SC (S states)
	if err != nil {
		t.Fatal(err)
	}
	sys, layout := BuildSystem(f, []int{1, 1})
	merged := layout.Merged
	var traces []string
	merged.SetTrace(func(s string) { traces = append(traces, s) })

	const data = spec.Addr(0)
	// P1 (SC cluster, cache 1 → core 1) reads data into S.
	// P4 (RC cluster, cache 0 → core 0) stores and releases.
	sys.SetPrograms([][]spec.CoreReq{
		{{Op: spec.OpStore, Addr: data, Value: 1}, {Op: spec.OpRelease}},
		{{Op: spec.OpLoad, Addr: data}},
	})
	// Deterministic walk: first let the SC cache load (S state), then let
	// the RC store buffer and release.
	if !sys.Apply(mcheck.Move{Kind: mcheck.MoveIssue, Core: 1}) {
		t.Fatal("SC load refused")
	}
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	scDir := merged.dirs[1].Protocol().Dir
	if got := scDir.StateName(merged.dirs[1].LineState(data)); got != "S" {
		t.Fatalf("SC directory state = %s, want S", got)
	}
	if got := merged.LocalState(data); !strings.HasPrefix(got, "VxS") {
		t.Fatalf("merged local state = %s, want VxS...", got)
	}
	if !sys.Apply(mcheck.Move{Kind: mcheck.MoveIssue, Core: 0}) { // store (fetch, then buffer)
		t.Fatal("RC store refused")
	}
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	if !sys.Apply(mcheck.Move{Kind: mcheck.MoveIssue, Core: 0}) { // release → WB
		t.Fatal("RC release refused")
	}
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := scDir.StateName(merged.dirs[1].LineState(data)); got != "I" {
		t.Errorf("SC directory state after write-back = %s, want I (Figure 9's VxI)", got)
	}
	if got := merged.LocalState(data); !strings.HasPrefix(got, "VxI") {
		t.Errorf("merged local state = %s, want VxI...", got)
	}
	if sc := sys.Cache(1); sc.Protocol().Cache.StateName(sc.LineState(data)) != "I" {
		t.Errorf("P1's copy not invalidated: %s", sc.Protocol().Cache.StateName(sc.LineState(data)))
	}
	if got := merged.Memory().Read(data); got != 1 {
		t.Errorf("memory = %d after propagated write-back, want 1", got)
	}
	if merged.Owner(data) != 0 {
		t.Errorf("owner = %d, want RC cluster 0", merged.Owner(data))
	}
	found := false
	for _, tr := range traces {
		if strings.Contains(tr, "write bridge") {
			found = true
		}
	}
	if !found {
		t.Error("no write bridge traced for the propagated write-back")
	}
}

// TestTableIIEnumeration runs the Table II extraction on one pair and
// checks the FSM is non-trivial.
func TestTableIIEnumeration(t *testing.T) {
	f, err := Fuse(Options{},
		protocols.MustByName(protocols.NameMSI), protocols.MustByName(protocols.NameMSI))
	if err != nil {
		t.Fatal(err)
	}
	e, cf, err := EnumerateCompiled(f, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if e.States < 4 || e.Transitions < e.States {
		t.Errorf("enumerated FSM too small: %d states, %d transitions", e.States, e.Transitions)
	}
	export := cf.FlatFSM().Format()
	if !strings.Contains(export, "states") || !strings.Contains(export, "-->") {
		t.Error("FSM export malformed")
	}
}
