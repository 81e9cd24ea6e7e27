package core

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
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

// newEntries counts into n the directory outcomes a search's memo
// records beyond its seed: the search reaches them through opts.OnMemo.
func newEntries(opts mcheck.Options, n *atomic.Int64) mcheck.Options {
	opts.OnMemo = func(mcheck.MemoEntry) { n.Add(1) }
	return opts
}

// requireAgreement compiles cfg once and, under each of opts, explores
// the interpreted composite unseeded, seeded with the freshly compiled
// table (its System()), and seeded with the table after a serialize →
// load round trip through the binary artifact, and fails unless every
// observable the
// differential contract covers agrees: reachable-state and transition
// counts, ample-state count, deadlock count, truncation and outcome sets.
// DeadlockAt is deliberately excluded (parallel search order is
// nondeterministic). A seeded search the table covers — its evictions no
// broader than the compiled ones — must record no directory outcome of
// its own.
func requireAgreement(t *testing.T, f *Fusion, cfg CompileConfig, opts ...mcheck.Options) {
	t.Helper()
	cf, err := Compile(f, cfg)
	if err != nil {
		t.Fatalf("%s: compile: %v", f.Name(), err)
	}
	lcf, err := LoadArtifactFor(cf.MarshalArtifact(), f, cfg)
	if err != nil {
		t.Fatalf("%s: artifact round trip: %v", f.Name(), err)
	}
	for _, opts := range opts {
		want := mcheck.Explore(interpretedSystem(f, cfg.CachesPerCluster, cfg.Programs), opts)
		if want.Engine != EngineInterpreted {
			t.Errorf("%s: interpreted run labeled %q", f.Name(), want.Engine)
		}
		for _, leg := range []struct {
			name string
			cf   *CompiledFusion
		}{{"seeded", cf}, {"loaded and seeded", lcf}} {
			var added atomic.Int64
			got := mcheck.Explore(leg.cf.System(), newEntries(opts, &added))
			what := fmt.Sprintf("%s: %s run at %d workers", f.Name(), leg.name, opts.Workers)
			sameSearch(t, what, got, want)
			if got.PORReduced != want.PORReduced || got.Truncated != want.Truncated {
				t.Errorf("%s: %d ample states, truncated %t; unseeded %d, %t", what, got.PORReduced, got.Truncated, want.PORReduced, want.Truncated)
			}
			if got.Engine != EngineCompiled {
				t.Errorf("%s labeled %q", what, got.Engine)
			}
			if n := added.Load(); n != 0 && (cfg.Evictions || !opts.Evictions) {
				t.Errorf("%s recorded %d directory outcomes its seed does not hold", what, n)
			}
		}
	}
}

// TestCompiledAgreementQuickAllPairs pins seeded ≡ unseeded on every
// Table II pair under the Table II driver (quick mode: no evictions), at
// one worker and at two.
func TestCompiledAgreementQuickAllPairs(t *testing.T) {
	for _, pair := range TableIIPairs() {
		requireAgreement(t, fusePair(t, pair[0], pair[1]), TableIICompileConfig(true, 1),
			mcheck.Options{Workers: 1}, mcheck.Options{Workers: 2})
	}
}

// TestCompiledAgreementFullMESIRCCO pins seeded ≡ unseeded on MESI&RCC-O
// at the full Table II configuration (evictions on), at one worker and at
// two.
func TestCompiledAgreementFullMESIRCCO(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	requireAgreement(t, fusePair(t, protocols.NameMESI, protocols.NameRCCO), TableIICompileConfig(false, 1),
		mcheck.Options{Workers: 1, Evictions: true}, mcheck.Options{Workers: 2, Evictions: true})
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

// TestCompiledSystemInterpretsForeignPrograms pins the seeded search's
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
		var added atomic.Int64
		res := mcheck.Explore(sys, newEntries(opts, &added))
		sameSearch(t, tc.name, res, want)
		if added.Load() == 0 {
			t.Errorf("%s: foreign programs never missed the seeded table", tc.name)
		}
		requireSameTable(t, tc.name+" after the search", ref, tc.cf)
		if !bytes.Equal(tc.cf.MarshalArtifact(), data) {
			t.Errorf("%s: MarshalArtifact() bytes changed by the search", tc.name)
		}
	}
}

// TestCompiledSystemConcurrentMisses runs two searches of one
// cf.System() at once, each on 2 workers, both seeded from the one table
// and missing it. Under -race this pins that a seed only reads the table,
// so concurrent searches may share it.
func TestCompiledSystemConcurrentMisses(t *testing.T) {
	f, cf, foreign := foreignTable(t, []int{2, 1})
	opts := mcheck.Options{Workers: 2}
	want := mcheck.Explore(interpretedSystem(f, []int{2, 1}, foreign), opts)
	sys := cf.System()
	sys.SetPrograms(foreign)
	var results [2]*mcheck.Result
	var added [2]atomic.Int64
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int, sys *mcheck.System) {
			defer wg.Done()
			results[i] = mcheck.Explore(sys, newEntries(opts, &added[i]))
		}(i, sys.Clone())
	}
	wg.Wait()
	for i, res := range results {
		sameSearch(t, fmt.Sprintf("search %d", i), res, want)
		if added[i].Load() == 0 {
			t.Errorf("search %d: foreign programs never missed the seeded table", i)
		}
	}
}

// TestStalledSendRefused pins that a table refuses a stalled delivery
// that sends — the checker discards a stalled successor, so the send
// could never be replayed — on both ways a table grows: the extraction's
// memo seam (adopt, the hook CompileCtx installs) and a load's replay
// through the interpreter.
func TestStalledSendRefused(t *testing.T) {
	f := fusePair(t, protocols.NameMSI, protocols.NameRCC)
	cfg := TableIICompileConfig(true, 1)
	base, err := Compile(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cf := newCompiledFusion(f, cfg)
	t.Run("extraction", func(t *testing.T) {
		tb := cf.initial()
		m := base.recs[base.spans[0][0]].msg
		tb.adopt(mcheck.MemoEntry{PreState: *tb.states[0], Next: mcheck.Stall, Msg: m, Sends: []spec.Msg{m}})
		if tb.err == nil || !strings.Contains(tb.err.Error(), "stalled delivery") {
			t.Fatalf("adopting a stall that sends left err %v", tb.err)
		}
	})
	t.Run("load", func(t *testing.T) {
		// A request the initial state answers by starting a bridge, taken
		// in before the bridge has run: the same request again stalls on
		// the bridge in flight, and the delivery's closing advance runs
		// the bridge, which sends.
		c := newCompiler(cf)
		var m spec.Msg
		for _, ri := range base.spans[0] {
			m = base.recs[ri].msg
			c.load(c.states[0].Img, c.states[0].Mem)
			if c.scratch.intake(&c.capture, c.scratch.clusterOfDir(m.Dst), m); len(c.scratch.bridges) > 0 {
				break
			}
		}
		if len(c.scratch.bridges) == 0 {
			t.Fatal("no request of the initial state starts a bridge")
		}
		if pre := c.intern(c.scratch); pre != 1 {
			t.Fatalf("the bridging state interned as %d, want 1", pre)
		}
		err := replay(c, &artifactParts{msgs: []spec.Msg{m}, lists: [][]uint32{nil, {0}}})
		if !errors.Is(err, ErrArtifactMismatch) || !strings.Contains(err.Error(), "stalled delivery") {
			t.Fatalf("replaying a stall that sends: %v", err)
		}
	})
}
