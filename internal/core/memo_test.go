package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"heterogen/internal/mcheck"
	"heterogen/internal/protocols"
	"heterogen/internal/spec"
)

func fusePair(t *testing.T, a, b string) *Fusion {
	t.Helper()
	f, err := Fuse(Options{}, protocols.MustByName(a), protocols.MustByName(b))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestExtractionDeterminism pins the memoized extraction's core contract:
// Workers ∈ {1,2,4} × memoization on/off × warm-start from a seeded table
// all produce byte-identical artifacts (which subsumes the dense table,
// the interned state images and the digest) and byte-identical FlatFSM
// renderings. Memoization and warm seeding change how the table is
// extracted — never what is extracted — and canonical state renumbering
// is what erases the schedule from the bytes.
func TestExtractionDeterminism(t *testing.T) {
	f := fusePair(t, protocols.NameMSI, protocols.NameRCC)
	base, err := Compile(f, TableIICompileConfig(true, 1))
	if err != nil {
		t.Fatal(err)
	}
	wantArt := base.MarshalArtifact()
	wantFSM := base.FlatFSM().Format()
	if base.Stats().MemoHits == 0 {
		t.Error("memoized compile recorded no memo hits")
	}
	if base.Stats().Interpreted != int64(base.Transitions()) {
		t.Errorf("interpreted %d deliveries for %d distinct pairs — memoization must interpret each pair exactly once",
			base.Stats().Interpreted, base.Transitions())
	}

	seed, err := LoadWarmSeed(wantArt, f, TableIICompileConfig(true, 1))
	if err != nil {
		t.Fatalf("same-config warm seed: %v", err)
	}

	// The exact visited set expands each state once, so the delivery
	// total — and, since each distinct pair is looked up and recorded
	// atomically, its split into interpreted, memoized and warm — is
	// schedule-free: every worker count must report the Workers=1 counts
	// of its mode.
	counts := map[string]CompileStats{}
	for _, workers := range []int{1, 2, 4} {
		for _, mode := range []string{"memo", "nomemo", "warm"} {
			t.Run(fmt.Sprintf("w%d/%s", workers, mode), func(t *testing.T) {
				cfg := TableIICompileConfig(true, workers)
				switch mode {
				case "nomemo":
					cfg.NoMemo = true
				case "warm":
					cfg.WarmSeed = seed
				}
				cf, err := Compile(f, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(cf.MarshalArtifact(), wantArt) {
					t.Error("artifact bytes differ from the Workers=1 memoized baseline")
				}
				if cf.FlatFSM().Format() != wantFSM {
					t.Error("FlatFSM rendering differs from the baseline")
				}
				st := cf.Stats()
				if mode == "warm" && st.WarmHits == 0 {
					t.Error("warm-started compile recorded no warm hits")
				}
				if mode == "memo" && st.Interpreted != int64(cf.Transitions()) {
					t.Errorf("interpreted %d deliveries for %d distinct pairs — memoization must interpret each pair exactly once",
						st.Interpreted, cf.Transitions())
				}
				if mode == "nomemo" && st.MemoHits != 0 {
					t.Errorf("non-memoized compile recorded %d memo hits", st.MemoHits)
				}
				if want, ok := counts[mode]; !ok {
					counts[mode] = st
				} else if st.Interpreted != want.Interpreted || st.MemoHits != want.MemoHits || st.WarmHits != want.WarmHits {
					t.Errorf("delivery counts depend on the schedule: %d interpreted, %d memoized, %d warm vs %d, %d, %d at Workers=1",
						st.Interpreted, st.MemoHits, st.WarmHits, want.Interpreted, want.MemoHits, want.WarmHits)
				}
			})
		}
	}
}

// TestExtractionSearchMatchesTable pins that a finished table reproduces
// exactly the graph that extracted it: a search of cf.System() under the
// extraction's own options (evictions as compiled, POR off, one worker)
// visits the same number of states the extraction did, runs to
// exhaustion, and — every Table II fusion being deadlock-free under its
// driver — finds no deadlock.
func TestExtractionSearchMatchesTable(t *testing.T) {
	type tcase struct {
		pair [2]string
		cfg  CompileConfig
	}
	var cases []tcase
	for _, pair := range TableIIPairs() {
		cases = append(cases, tcase{pair, TableIICompileConfig(true, 1)})
	}
	if !testing.Short() {
		cases = append(cases, tcase{[2]string{protocols.NameMESI, protocols.NameRCCO}, TableIICompileConfig(false, 1)})
	}
	for _, tc := range cases {
		f := fusePair(t, tc.pair[0], tc.pair[1])
		cf, err := Compile(f, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		res := mcheck.Explore(cf.System(), mcheck.Options{Evictions: tc.cfg.Evictions, Workers: 1, POR: mcheck.POROff})
		if res.States != cf.Explored() {
			t.Errorf("%s (evictions=%v): table search visits %d states, extraction %d",
				f.Name(), tc.cfg.Evictions, res.States, cf.Explored())
		}
		if res.Truncated || res.Cancelled {
			t.Errorf("%s: table search did not run to exhaustion", f.Name())
		}
		if res.Deadlocks != 0 {
			t.Errorf("%s: table search found %d deadlocks (%s)", f.Name(), res.Deadlocks, res.DeadlockAt)
		}
	}
}

// TestWarmStartCrossConfig: a quick (eviction-free) table seeds the full
// (evictions-on) extraction of the same pair — the compatibility rules
// admit differing programs/evictions — and the topped-up table is
// byte-identical to a cold full compile, with or without memoization.
func TestWarmStartCrossConfig(t *testing.T) {
	f := fusePair(t, protocols.NameMSI, protocols.NameMSI)
	// A small driver keeps the evictions-on search unit-test sized; the
	// compatibility rule under test is the evictions axis, not the scale.
	prog := [][]spec.CoreReq{
		{{Op: spec.OpStore, Addr: 0, Value: 1}, {Op: spec.OpLoad, Addr: 1}},
		{{Op: spec.OpStore, Addr: 1, Value: 2}, {Op: spec.OpLoad, Addr: 0}},
	}
	quickCfg := CompileConfig{CachesPerCluster: []int{1, 1}, Programs: prog, Workers: 1}
	quick, err := Compile(f, quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	fullCfg := quickCfg
	fullCfg.Evictions = true
	cold, err := Compile(f, fullCfg)
	if err != nil {
		t.Fatal(err)
	}
	seed, err := LoadWarmSeed(quick.MarshalArtifact(), f, fullCfg)
	if err != nil {
		t.Fatalf("quick table does not seed the full config: %v", err)
	}

	for _, nomemo := range []bool{false, true} {
		cfg := fullCfg
		cfg.WarmSeed = seed
		cfg.NoMemo = nomemo
		warm, err := Compile(f, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Stats().WarmHits == 0 {
			t.Errorf("nomemo=%v: cross-config warm compile recorded no warm hits", nomemo)
		}
		if !bytes.Equal(warm.MarshalArtifact(), cold.MarshalArtifact()) {
			t.Errorf("nomemo=%v: warm-started artifact differs from the cold compile", nomemo)
		}
	}
}

// TestCompileOrLoadWarmScan: on an exact-digest cache miss, CompileOrLoad
// finds a warm-compatible sibling artifact in the cache and seeds the
// recompile from it, producing the same bytes a cold compile would.
func TestCompileOrLoadWarmScan(t *testing.T) {
	f := fusePair(t, protocols.NameMSI, protocols.NameRCC)
	dir := t.TempDir()
	cfgA := TableIICompileConfig(true, 1)
	if _, cached, err := CompileOrLoad(f, cfgA, dir); err != nil || cached {
		t.Fatalf("seeding compile: cached=%v err=%v", cached, err)
	}

	// Same warm identity, different exact digest: drop one driver request.
	cfgB := cfgA
	cfgB.Programs = append([][]spec.CoreReq(nil), cfgA.Programs...)
	cfgB.Programs[0] = cfgB.Programs[0][:len(cfgB.Programs[0])-1]
	if CompileDigest(f, cfgA) == CompileDigest(f, cfgB) {
		t.Fatal("test setup: cfgB must miss the exact cache")
	}

	warm, cached, err := CompileOrLoad(f, cfgB, dir)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("cfgB unexpectedly hit the exact cache")
	}
	if warm.Stats().WarmHits == 0 {
		t.Error("warm scan found no compatible seed in the cache")
	}
	cold, err := Compile(f, cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(warm.MarshalArtifact(), cold.MarshalArtifact()) {
		t.Error("warm-scanned compile differs from a cold compile")
	}
}

// TestLoadWarmSeedRejectsIncompatible: a different pair's table must not
// seed this fusion, however plausible its bytes.
func TestLoadWarmSeedRejectsIncompatible(t *testing.T) {
	fA := fusePair(t, protocols.NameMSI, protocols.NameRCC)
	fB := fusePair(t, protocols.NameMESI, protocols.NameRCC)
	cfA, err := Compile(fA, TableIICompileConfig(true, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadWarmSeed(cfA.MarshalArtifact(), fB, TableIICompileConfig(true, 1)); !errors.Is(err, ErrArtifactMismatch) {
		t.Fatalf("incompatible seed accepted (err=%v)", err)
	}
	// And Compile itself re-checks a caller-provided seed.
	seed, err := LoadWarmSeed(cfA.MarshalArtifact(), fA, TableIICompileConfig(true, 1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := TableIICompileConfig(true, 1)
	cfg.WarmSeed = seed
	if _, err := Compile(fB, cfg); !errors.Is(err, ErrArtifactMismatch) {
		t.Fatalf("Compile accepted a mismatched warm seed (err=%v)", err)
	}
}
