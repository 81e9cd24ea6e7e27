package engine

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"heterogen/internal/core"
	"heterogen/internal/mcheck"
	"heterogen/internal/protocols"
)

// TestCheckMatchesDirect pins the refactor's core promise: a request
// through the engine produces exactly the result the command used to get
// by assembling mcheck options itself.
func TestCheckMatchesDirect(t *testing.T) {
	req := CheckRequest{
		Protocol: "MSI",
		Caches:   2,
		Addrs:    1,
		Search:   SearchOptions{Workers: 1, Hash: true},
	}
	res, err := Check(context.Background(), req, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Name != "MSI" {
		t.Fatalf("result name %q", res.Name)
	}
	if err := res.Verdict(); err != nil {
		t.Fatalf("verdict on a clean check: %v", err)
	}

	// The direct path the old CLI ran.
	sys := mcheck.NewHomogeneous(protocols.MustByName(protocols.NameMSI), 2)
	sys.SetPrograms(CheckDriver(2, 1, false))
	direct := mcheck.Explore(sys, mcheck.Options{
		Evictions: true, HashCompaction: true, Workers: 1,
		MaxStates: DefaultCheckMaxStates, POR: mcheck.PORAuto,
	})
	if res.States != direct.States || res.Transitions != direct.Transitions || res.Deadlocks != direct.Deadlocks {
		t.Fatalf("engine diverged from direct search:\n engine %s\n direct %s", &res.Result, direct)
	}

	// A pair searches the growing table; the direct interpreted
	// composite is its oracle.
	pres, err := Check(context.Background(), CheckRequest{
		Pair:   []string{"MSI", "RCC"},
		Caches: 1,
		Addrs:  1,
		Search: SearchOptions{Workers: 1, Hash: true},
	}, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if pres.Engine != core.EngineCompiled {
		t.Errorf("pair check labeled %q, want %q", pres.Engine, core.EngineCompiled)
	}
	f, err := core.Fuse(core.Options{}, protocols.MustByName(protocols.NameMSI), protocols.MustByName(protocols.NameRCC))
	if err != nil {
		t.Fatal(err)
	}
	isys, _ := core.BuildSystem(f, []int{1, 1})
	isys.SetPrograms(CheckDriver(2, 1, false))
	idirect := mcheck.Explore(isys, mcheck.Options{
		Evictions: true, HashCompaction: true, Workers: 1,
		MaxStates: DefaultCheckMaxStates, POR: mcheck.PORAuto,
	})
	if pres.States != idirect.States || pres.Transitions != idirect.Transitions ||
		pres.Deadlocks != idirect.Deadlocks || pres.Truncated != idirect.Truncated {
		t.Fatalf("pair check diverged from the interpreted search:\n engine %s\n direct %s", &pres.Result, idirect)
	}
	got, want := pres.Outcomes.Keys(), idirect.Outcomes.Keys()
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("pair check outcomes differ:\n engine %v\n direct %v", got, want)
	}
}

// TestCheckCancelled: a pre-cancelled context yields a partial result
// with a verdict, not a request error.
func TestCheckCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Check(ctx, CheckRequest{Protocol: "MSI", Caches: 1, Addrs: 1}, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cancelled {
		t.Fatalf("expected a cancelled result, got %s", &res.Result)
	}
	if res.Verdict() == nil {
		t.Fatal("cancelled result must carry a nonzero verdict")
	}
}

// TestSearchOptionsDefaults pins the JSON zero value's meaning: POR on,
// the baseline every command shares.
func TestSearchOptionsDefaults(t *testing.T) {
	var s SearchOptions
	if err := json.Unmarshal([]byte(`{}`), &s); err != nil {
		t.Fatal(err)
	}
	if s.PORMode() != mcheck.PORAuto {
		t.Fatal("zero-value options must keep POR on")
	}
	// An unknown key, such as a retired "encoding" field, is ignored.
	if err := json.Unmarshal([]byte(`{"no_por":true,"encoding":"snapshot"}`), &s); err != nil {
		t.Fatal(err)
	}
	if s.PORMode() != mcheck.POROff {
		t.Fatal("no_por did not disable the reduction")
	}
}

// TestLitmusRequest runs the smallest real suite through the engine.
func TestLitmusRequest(t *testing.T) {
	res, err := Litmus(context.Background(), LitmusRequest{
		Pair:   []string{"MSI", "MSI"},
		Shapes: []string{"MP"},
		Search: SearchOptions{Workers: 1},
	}, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) == 0 || res.Failed != 0 || res.Cancelled {
		t.Fatalf("suite run: %d results, %d failed, cancelled=%v", len(res.Results), res.Failed, res.Cancelled)
	}
	if err := res.Verdict(); err != nil {
		t.Fatalf("verdict on a passing suite: %v", err)
	}
}

// TestLitmusForwardsSearch: a litmus request's search knobs reach every
// test's exploration as they reach a check's. WRC at alloc [0 1 0] with
// evictions explores 66,477 states unbounded; a 1 KiB visited-set budget
// under hash compaction must truncate it.
func TestLitmusForwardsSearch(t *testing.T) {
	res, err := Litmus(context.Background(), LitmusRequest{
		Pair:      []string{"MSI", "RCC"},
		Shapes:    []string{"WRC"},
		Evictions: true,
		Search:    SearchOptions{Workers: 1, Hash: true, MemBudget: 1 << 10},
	}, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	truncated := 0
	for _, r := range res.Results {
		if r.Truncated {
			truncated++
		}
	}
	if truncated == 0 {
		t.Fatalf("mem_budget 1KiB truncated none of %d WRC tests", len(res.Results))
	}
}

// TestLitmusProgress: the progress hook hears from litmus searches,
// tagged with the search phase.
func TestLitmusProgress(t *testing.T) {
	var mu sync.Mutex
	phases := map[string]int{}
	_, err := Litmus(context.Background(), LitmusRequest{
		Pair:   []string{"MSI", "RCC"},
		Shapes: []string{"WRC"},
		Search: SearchOptions{Workers: 1},
	}, Hooks{
		ProgressEvery: time.Millisecond,
		OnProgress: func(p Progress) {
			mu.Lock()
			phases[p.Phase]++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if phases["search"] == 0 || len(phases) != 1 {
		t.Fatalf("progress reports by phase: %v, want only search reports", phases)
	}
}

// TestLitmusWorkerBudget pins that a litmus request never searches wider
// than its Search.Workers budget: with Workers 1 every test — suite or
// homogeneous — explores on one worker, and with Workers 2 concurrent
// tests times per-test search workers stay within 2.
func TestLitmusWorkerBudget(t *testing.T) {
	for _, req := range []LitmusRequest{
		{Pair: []string{"MSI", "MSI"}, Shapes: []string{"MP", "SB"}, Search: SearchOptions{Workers: 1}},
		{Pair: []string{"MSI", "MSI"}, Shapes: []string{"MP"}, Search: SearchOptions{Workers: 2}},
		{Protocol: "MSI", Shapes: []string{"MP", "SB"}, Search: SearchOptions{Workers: 1}},
	} {
		res, err := Litmus(context.Background(), req, Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Results) == 0 {
			t.Fatalf("%+v: no tests ran", req)
		}
		concurrent := min(req.Search.Workers, len(res.Results))
		if req.Protocol != "" {
			concurrent = 1
		}
		for _, r := range res.Results {
			if r.Workers*concurrent > req.Search.Workers {
				t.Errorf("workers=%d: %s %v searched on %d workers beside %d concurrent tests",
					req.Search.Workers, r.Shape, r.Assign, r.Workers, concurrent)
			}
			if req.Search.Workers == 1 && r.Workers != 1 {
				t.Errorf("workers=1: %s %v searched on %d workers", r.Shape, r.Assign, r.Workers)
			}
		}
	}
}

// TestCompileRequest compiles once cold and once through the cache,
// checking the Source provenance both times and the OnCompiled hook.
func TestCompileRequest(t *testing.T) {
	cache := t.TempDir()
	req := CompileRequest{
		Pair:   []string{"MSI", "MSI"},
		Search: SearchOptions{Workers: 1},
	}
	var hooked string
	hooks := Hooks{
		OnCompiled:   func(name string, stats core.CompileStats) { hooked = stats.Source },
		CompileCache: cache,
	}

	cold, err := Compile(context.Background(), req, hooks)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.Source != core.SourceCompiler || hooked != core.SourceCompiler {
		t.Fatalf("cold compile source %q (hook saw %q)", cold.Stats.Source, hooked)
	}
	if cold.Digest == "" || cold.Compiled() == nil || cold.FlatStates == 0 {
		t.Fatalf("compile result incomplete: %+v", cold)
	}

	warm, err := Compile(context.Background(), req, hooks)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.Source != core.SourceCache || hooked != core.SourceCache {
		t.Fatalf("second compile source %q, want cache hit", warm.Stats.Source)
	}
	if warm.Digest != cold.Digest {
		t.Fatalf("digest changed across the cache: %s vs %s", warm.Digest, cold.Digest)
	}
}

// TestCompileResultCarriesVerdict: a compile of a fusion whose extraction
// deadlocks reports the deadlocks in its JSON result, from a fresh
// extraction and from a compile-cache hit alike.
func TestCompileResultCarriesVerdict(t *testing.T) {
	pcc, err := os.ReadFile(filepath.Join("..", "core", "testdata", "msi_no_putack.pcc"))
	if err != nil {
		t.Fatal(err)
	}
	req := CompileRequest{Pair: []string{"-", "RCC"}, Spec: string(pcc), Full: true,
		Search: SearchOptions{Workers: 1}}
	hooks := Hooks{CompileCache: t.TempDir()}
	for _, source := range []string{core.SourceCompiler, core.SourceCache} {
		res, err := Compile(context.Background(), req, hooks)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Stats struct {
				Source     string
				Deadlocks  int
				DeadlockAt string
			} `json:"stats"`
		}
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatal(err)
		}
		if got.Stats.Source != source || got.Stats.Deadlocks != 39 || got.Stats.DeadlockAt == "" {
			t.Errorf("compile result stats: source %q, %d deadlocks at %q; want source %q, 39 deadlocks and a snapshot",
				got.Stats.Source, got.Stats.Deadlocks, got.Stats.DeadlockAt, source)
		}
	}
}

// TestCompileSearchKnobs: a compile request honours max_states and
// mem_budget (a budget below the extraction's size truncates it) and
// accepts no_por, while each storage knob extraction cannot honour fails
// the request with an error naming the field.
func TestCompileSearchKnobs(t *testing.T) {
	ctx := context.Background()
	req := func(s SearchOptions) CompileRequest {
		return CompileRequest{Pair: []string{"MSI", "MSI"}, Search: s}
	}
	if _, err := Compile(ctx, req(SearchOptions{Workers: 1, MaxStates: 10}), Hooks{}); !errors.Is(err, core.ErrCompileTruncated) {
		t.Errorf("max_states 10: got %v, want core.ErrCompileTruncated", err)
	}
	_, err := Compile(ctx, req(SearchOptions{Workers: 1, MemBudget: 1 << 10}), Hooks{})
	if !errors.Is(err, core.ErrCompileTruncated) || !strings.Contains(err.Error(), "(memory budget)") {
		t.Errorf("mem_budget 1 KiB: got %v, want core.ErrCompileTruncated naming the memory budget", err)
	}
	if _, err := Compile(ctx, req(SearchOptions{Workers: 1, NoPOR: true}), Hooks{}); err != nil {
		t.Errorf("no_por: %v", err)
	}
	for field, s := range map[string]SearchOptions{
		"hash":      {Hash: true},
		"spill_dir": {SpillDir: t.TempDir()},
	} {
		s.Workers = 1
		if _, err := Compile(ctx, req(s), Hooks{}); err == nil || !strings.Contains(err.Error(), "search."+field) {
			t.Errorf("%s: got %v, want an error naming search.%s", field, err, field)
		}
	}
}
