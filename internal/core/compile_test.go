package core

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"testing"

	"heterogen/internal/mcheck"
	"heterogen/internal/protocols"
	"heterogen/internal/spec"
)

// outcomeKeys projects an exploration's outcome set to a sorted key list
// for order-independent comparison.
func outcomeKeys(res *mcheck.Result) []string {
	keys := res.Outcomes.Keys()
	sort.Strings(keys)
	return keys
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// interpretedSystem is the interpreted composite every fused check and
// litmus test searches: BuildSystem driven by programs.
func interpretedSystem(f *Fusion, cachesPerCluster []int, programs [][]spec.CoreReq) *mcheck.System {
	sys, _ := BuildSystem(f, cachesPerCluster)
	sys.SetPrograms(programs)
	return sys
}

// requireAgreement explores the interpreted composite, the freshly
// compiled table, AND the table after a serialize → load round trip
// through the binary artifact, all under identical options, and fails unless every observable the
// differential contract covers agrees:
// reachable-state and transition counts, deadlock count and outcome sets;
// the compiled and loaded runs also agree on the ample-state count, since a load derives the POR
// references the compile captured. DeadlockAt is
// deliberately excluded (parallel search order is nondeterministic).
func requireAgreement(t *testing.T, f *Fusion, cfg CompileConfig, opts mcheck.Options) (*mcheck.Result, *mcheck.Result) {
	t.Helper()
	cf, err := Compile(f, cfg)
	if err != nil {
		t.Fatalf("%s: compile: %v", f.Name(), err)
	}

	ires := mcheck.Explore(interpretedSystem(f, cfg.CachesPerCluster, cfg.Programs), opts)

	csys := cf.System()
	cres := mcheck.Explore(csys, opts)

	// Serialize → load → check: the reloaded table must be observationally
	// identical to the freshly compiled one.
	lcf, err := LoadArtifactFor(cf.MarshalArtifact(), f, cfg)
	if err != nil {
		t.Fatalf("%s: artifact round trip: %v", f.Name(), err)
	}
	lres := mcheck.Explore(lcf.System(), opts)
	if lres.States != cres.States || lres.Transitions != cres.Transitions ||
		lres.Deadlocks != cres.Deadlocks || lres.Truncated != cres.Truncated ||
		lres.PORReduced != cres.PORReduced {
		t.Errorf("%s: loaded-artifact run diverges from compiled: %d/%d states, %d/%d transitions, %d/%d deadlocks, %d/%d ample",
			f.Name(), lres.States, cres.States, lres.Transitions, cres.Transitions, lres.Deadlocks, cres.Deadlocks,
			lres.PORReduced, cres.PORReduced)
	}
	if lk, ck := outcomeKeys(lres), outcomeKeys(cres); !sameStrings(lk, ck) {
		t.Errorf("%s: loaded-artifact outcome set differs:\n  compiled: %v\n  loaded:   %v", f.Name(), ck, lk)
	}

	if ires.Engine != EngineInterpreted {
		t.Errorf("%s: interpreted run labeled %q", f.Name(), ires.Engine)
	}
	if cres.Engine != EngineCompiled {
		t.Errorf("%s: compiled run labeled %q", f.Name(), cres.Engine)
	}
	if cres.States != ires.States {
		t.Errorf("%s: states differ: compiled %d vs interpreted %d", f.Name(), cres.States, ires.States)
	}
	if cres.Transitions != ires.Transitions {
		t.Errorf("%s: transitions differ: compiled %d vs interpreted %d", f.Name(), cres.Transitions, ires.Transitions)
	}
	if cres.Deadlocks != ires.Deadlocks {
		t.Errorf("%s: deadlocks differ: compiled %d vs interpreted %d", f.Name(), cres.Deadlocks, ires.Deadlocks)
	}
	if cres.Truncated != ires.Truncated {
		t.Errorf("%s: truncation differs: compiled %v vs interpreted %v", f.Name(), cres.Truncated, ires.Truncated)
	}
	if ik, ck := outcomeKeys(ires), outcomeKeys(cres); !sameStrings(ik, ck) {
		t.Errorf("%s: outcome sets differ:\n  interpreted: %v\n  compiled:    %v", f.Name(), ik, ck)
	}
	return ires, cres
}

// TestCompiledAgreementQuickAllPairs pins compiled ≡ interpreted on every
// Table II pair under the Table II driver (quick mode: no evictions).
func TestCompiledAgreementQuickAllPairs(t *testing.T) {
	for _, pair := range TableIIPairs() {
		f, err := Fuse(Options{}, protocols.MustByName(pair[0]), protocols.MustByName(pair[1]))
		if err != nil {
			t.Fatal(err)
		}
		cfg := CompileConfig{CachesPerCluster: []int{1, 1}, Programs: tableIIDriver()}
		requireAgreement(t, f, cfg, mcheck.Options{Workers: 1})
	}
}

// TestCompiledAgreementModes sweeps the checker's mode matrix — workers ×
// POR × storage — on RCC&RCC with two caches in the first cluster and
// pins agreement in every cell.
func TestCompiledAgreementModes(t *testing.T) {
	f, err := Fuse(Options{}, protocols.MustByName(protocols.NameRCC), protocols.MustByName(protocols.NameRCC))
	if err != nil {
		t.Fatal(err)
	}
	progs := [][]spec.CoreReq{
		{{Op: spec.OpStore, Addr: 0, Value: 1}, {Op: spec.OpLoad, Addr: 1}},
		{{Op: spec.OpStore, Addr: 1, Value: 2}, {Op: spec.OpLoad, Addr: 0}},
		{{Op: spec.OpStore, Addr: 0, Value: 3}},
	}
	cfg := CompileConfig{CachesPerCluster: []int{2, 1}, Programs: progs}
	for _, workers := range []int{1, 0} {
		for _, por := range []mcheck.PORMode{mcheck.POROff, mcheck.PORAuto} {
			for _, storage := range []string{"exact", "hash"} {
				name := fmt.Sprintf("w%d_por%v_%s", workers, por != mcheck.POROff, storage)
				t.Run(name, func(t *testing.T) {
					opts := mcheck.Options{Workers: workers, POR: por, HashCompaction: storage == "hash"}
					requireAgreement(t, f, cfg, opts)
				})
			}
		}
	}
}

// TestCompiledAgreementEvictions pins agreement with eviction exploration
// on, and additionally that a table compiled WITH evictions also serves an
// eviction-free check (the compiled coverage is a superset).
func TestCompiledAgreementEvictions(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f, err := Fuse(Options{}, protocols.MustByName(protocols.NameRCC), protocols.MustByName(protocols.NameRCC))
	if err != nil {
		t.Fatal(err)
	}
	cfg := CompileConfig{CachesPerCluster: []int{1, 1}, Programs: tableIIDriver(), Evictions: true}
	requireAgreement(t, f, cfg, mcheck.Options{Workers: 1, Evictions: true})

	// Narrower check against the same (eviction-covering) table.
	cf, err := Compile(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	isys, _ := BuildSystem(f, cfg.CachesPerCluster)
	isys.SetPrograms(cfg.Programs)
	ires := mcheck.Explore(isys, mcheck.Options{Workers: 1})
	cres := mcheck.Explore(cf.System(), mcheck.Options{Workers: 1})
	if cres.States != ires.States || cres.Deadlocks != ires.Deadlocks {
		t.Errorf("eviction-free check over eviction-compiled table disagrees: %d/%d states, %d/%d deadlocks",
			cres.States, ires.States, cres.Deadlocks, ires.Deadlocks)
	}
}

// TestCompiledProtocolProjection pins the flat-protocol lift: the
// projected machine validates, its states match the FlatFSM, and its init
// state is stable.
func TestCompiledProtocolProjection(t *testing.T) {
	f, err := Fuse(Options{}, protocols.MustByName(protocols.NameMSI), protocols.MustByName(protocols.NameRCC))
	if err != nil {
		t.Fatal(err)
	}
	_, cf, err := EnumerateCompiled(f, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := cf.Protocol()
	if err != nil {
		t.Fatal(err)
	}
	if p.Cache != nil || !p.Dir.Flat {
		t.Fatal("projection should be a directory-only flat protocol")
	}
	if got, want := len(p.Dir.States()), len(cf.FlatFSM().States); got != want {
		t.Errorf("projected machine has %d states, FlatFSM %d", got, want)
	}
	if got, want := len(p.Dir.Rows), len(cf.FlatFSM().Edges); got != want {
		t.Errorf("projected machine has %d rows, FlatFSM %d edges", got, want)
	}
	if !p.Dir.IsStable(p.Dir.Init) {
		t.Errorf("init state %s not classified stable", p.Dir.Init)
	}
	if len(p.Dir.Stable) >= len(p.Dir.States()) {
		t.Errorf("every projected state classified stable — transient detection broken")
	}
}

// TestCompiledProtocolPCCRoundTrip pins the text form: export → parse →
// re-export must be byte-identical, and the parsed protocol must carry the
// flat marker through.
func TestCompiledProtocolPCCRoundTrip(t *testing.T) {
	f, err := Fuse(Options{}, protocols.MustByName(protocols.NameMSI), protocols.MustByName(protocols.NameRCC))
	if err != nil {
		t.Fatal(err)
	}
	_, cf, err := EnumerateCompiled(f, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := cf.Protocol()
	if err != nil {
		t.Fatal(err)
	}
	text := spec.ExportPCC(p)
	reparsed, err := spec.ParsePCC(text)
	if err != nil {
		t.Fatalf("re-parsing exported flat PCC: %v\n%s", err, text)
	}
	if !reparsed.Dir.Flat {
		t.Error("flat marker lost in round trip")
	}
	if again := spec.ExportPCC(reparsed); again != text {
		t.Errorf("PCC round trip not a fixpoint:\n--- first ---\n%s\n--- second ---\n%s", text, again)
	}
}

// sameSearch fails unless two results agree on every observable a seeded
// table must reproduce: states, transitions, deadlocks and outcomes.
func sameSearch(t *testing.T, what string, got, want *mcheck.Result) {
	t.Helper()
	if got.States != want.States || got.Transitions != want.Transitions || got.Deadlocks != want.Deadlocks {
		t.Errorf("%s: %d states, %d transitions, %d deadlocks; want %d, %d, %d",
			what, got.States, got.Transitions, got.Deadlocks, want.States, want.Transitions, want.Deadlocks)
	}
	if gk, wk := outcomeKeys(got), outcomeKeys(want); !sameStrings(gk, wk) {
		t.Errorf("%s: outcome set differs:\n  got:  %v\n  want: %v", what, gk, wk)
	}
}

// foreignTable compiles MSI&RCC with caches per cluster for every core
// loading address 0, and returns it with programs it was not compiled
// for: every core storing its own value to address 1 reaches (state,
// message) pairs the table does not hold.
func foreignTable(t *testing.T, caches []int) (*Fusion, *CompiledFusion, [][]spec.CoreReq) {
	t.Helper()
	f := fusePair(t, protocols.NameMSI, protocols.NameRCC)
	var progs, foreign [][]spec.CoreReq
	for core := 0; core < caches[0]+caches[1]; core++ {
		progs = append(progs, []spec.CoreReq{{Op: spec.OpLoad, Addr: 0}})
		foreign = append(foreign, []spec.CoreReq{{Op: spec.OpStore, Addr: 1, Value: core + 1}})
	}
	cf, err := Compile(f, CompileConfig{CachesPerCluster: caches, Programs: progs})
	if err != nil {
		t.Fatal(err)
	}
	return f, cf, foreign
}

// compilerOf returns the growing table a system's directory dispatches
// through.
func compilerOf(cf *CompiledFusion, sys *mcheck.System) *compiler {
	return sys.Components[cf.mergedIdx].(*CompiledDir).grow
}

// TestCompiledSystemInterpretsForeignPrograms pins the seeded table's
// miss path: driving a finished table — compiled here or loaded from its
// artifact — with programs it was not compiled for interprets the unseen
// pairs and reports exactly what the interpreted composite does, while the
// CompiledFusion itself stays untouched.
func TestCompiledSystemInterpretsForeignPrograms(t *testing.T) {
	f, cf, foreign := foreignTable(t, []int{1, 1})
	data := cf.MarshalArtifact()
	lcf, err := LoadArtifactFor(data, f, cf.Config())
	if err != nil {
		t.Fatal(err)
	}
	// The artifact holds only the delivered pairs, so the table itself is
	// compared against an untouched copy.
	ref, err := LoadArtifactFor(data, f, cf.Config())
	if err != nil {
		t.Fatal(err)
	}
	opts := mcheck.Options{Workers: 1}
	want := mcheck.Explore(interpretedSystem(f, []int{1, 1}, foreign), opts)
	for _, tc := range []struct {
		name string
		cf   *CompiledFusion
	}{{"compiled", cf}, {"loaded", lcf}} {
		sys := tc.cf.System()
		sys.SetPrograms(foreign)
		res := mcheck.Explore(sys, opts)
		sameSearch(t, tc.name, res, want)
		if n := compilerOf(tc.cf, sys).interpreted; n == 0 {
			t.Errorf("%s: foreign programs never missed the seeded table", tc.name)
		}
		requireSameTable(t, tc.name+" after the search", ref, tc.cf)
		if !bytes.Equal(tc.cf.MarshalArtifact(), data) {
			t.Errorf("%s: MarshalArtifact() bytes changed by the search", tc.name)
		}
	}
}

// TestCompiledSystemConcurrentMisses runs two searches of one
// cf.System() at once, each on 2 workers, both growing its table on
// misses. Under -race this pins the table's locking and lock-free
// publication.
func TestCompiledSystemConcurrentMisses(t *testing.T) {
	f, cf, foreign := foreignTable(t, []int{2, 1})
	opts := mcheck.Options{Workers: 2}
	want := mcheck.Explore(interpretedSystem(f, []int{2, 1}, foreign), opts)
	sys := cf.System()
	sys.SetPrograms(foreign)
	var results [2]*mcheck.Result
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int, sys *mcheck.System) {
			defer wg.Done()
			results[i] = mcheck.Explore(sys, opts)
		}(i, sys.Clone())
	}
	wg.Wait()
	for i, res := range results {
		sameSearch(t, fmt.Sprintf("search %d", i), res, want)
	}
	if compilerOf(cf, sys).interpreted == 0 {
		t.Error("foreign programs never missed the seeded table")
	}
}
