// Package heterogen's benchmark harness regenerates every table and figure
// of the paper's evaluation (run with `go test -bench=. -benchmem`):
//
//	BenchmarkTableI            — the seven case-study protocols
//	BenchmarkTableII           — merged-directory state/transition counts
//	BenchmarkFigure3           — Dekker on the SC×TSO compound machine
//	BenchmarkLitmusSuite       — §VII-B heterogeneous litmus validation
//	BenchmarkDeadlockFreedom   — §VII-C reachability search
//	BenchmarkFigure10          — §VIII speedup and traffic vs HCC
//	BenchmarkAblation*         — design-choice ablations (DESIGN.md)
//
// The -short benchmarks keep iteration times in seconds; EXPERIMENTS.md
// records full-scale runs produced by the cmd tools.
package heterogen

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"heterogen/internal/armor"
	"heterogen/internal/benchmeta"
	"heterogen/internal/core"
	"heterogen/internal/engine"
	"heterogen/internal/litmus"
	"heterogen/internal/mcheck"
	"heterogen/internal/memmodel"
	"heterogen/internal/protocols"
	"heterogen/internal/sim"
	"heterogen/internal/spec"
	"heterogen/internal/workload"
)

// BenchmarkTableI builds and validates the seven input protocols.
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, p := range protocols.All() {
			if err := p.Validate(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(protocols.Names())), "protocols")
}

// BenchmarkTableII enumerates the merged-directory FSM for all eight case
// studies from their compiled tables on one worker (quick mode;
// `heterogen -tableii -full` for the full search).
func BenchmarkTableII(b *testing.B) {
	var states, trans int
	for i := 0; i < b.N; i++ {
		states, trans = 0, 0
		for _, pair := range core.TableIIPairs() {
			f, err := core.Fuse(core.Options{},
				protocols.MustByName(pair[0]), protocols.MustByName(pair[1]))
			if err != nil {
				b.Fatal(err)
			}
			e, _, err := core.EnumerateCompiled(f, true, 1)
			if err != nil {
				b.Fatal(err)
			}
			states += e.States
			trans += e.Transitions
		}
	}
	b.ReportMetric(float64(states), "total-states")
	b.ReportMetric(float64(trans), "total-transitions")
}

// BenchmarkFigure3 evaluates the Dekker verdicts on the SC×TSO compound.
func BenchmarkFigure3(b *testing.B) {
	cm, err := memmodel.NewCompound(
		[]memmodel.Model{memmodel.MustByID(memmodel.SC), memmodel.MustByID(memmodel.TSO)},
		[]int{0, 1})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		pa := memmodel.NewProgram(
			[]*memmodel.Op{memmodel.St("x", 1), memmodel.Ld("y")},
			[]*memmodel.Op{memmodel.St("y", 1), memmodel.Ld("x")})
		pb := memmodel.NewProgram(
			[]*memmodel.Op{memmodel.St("x", 1), memmodel.Ld("y")},
			[]*memmodel.Op{memmodel.St("y", 1), memmodel.Fn(), memmodel.Ld("x")})
		la, lb := pa.Loads(), pb.Loads()
		zeroA := memmodel.Outcome{memmodel.LoadKey(la[0]): 0, memmodel.LoadKey(la[1]): 0}
		zeroB := memmodel.Outcome{memmodel.LoadKey(lb[0]): 0, memmodel.LoadKey(lb[1]): 0}
		if !memmodel.AllowedOutcomes(pa, cm).Has(zeroA) {
			b.Fatal("Figure 3(a) verdict wrong")
		}
		if memmodel.AllowedOutcomes(pb, cm).Has(zeroB) {
			b.Fatal("Figure 3(b) verdict wrong")
		}
	}
}

// BenchmarkLitmusSuite runs the heterogeneous litmus validation: the
// 2-thread shapes on every Table II pair with both heterogeneous
// allocations (the 3/4-thread shapes and full allocation sweeps run via
// cmd/hglitmus; EXPERIMENTS.md records a full run).
func BenchmarkLitmusSuite(b *testing.B) {
	var tests, passed int
	for i := 0; i < b.N; i++ {
		tests, passed = 0, 0
		for _, pair := range core.TableIIPairs() {
			f, err := core.Fuse(core.Options{},
				protocols.MustByName(pair[0]), protocols.MustByName(pair[1]))
			if err != nil {
				b.Fatal(err)
			}
			for _, shape := range litmus.Shapes() {
				threads := len(shape.Prog().Threads)
				if threads > 2 {
					continue
				}
				for _, assign := range litmus.Allocations(threads, 2, false) {
					r := litmus.RunFused(f, shape, assign, litmus.Options{})
					tests++
					if r.Pass() {
						passed++
					} else {
						b.Fatalf("litmus failure: %s", r)
					}
				}
			}
		}
	}
	b.ReportMetric(float64(tests), "tests")
	b.ReportMetric(float64(passed), "passed")
}

// BenchmarkDeadlockFreedom is the §VII-C exhaustive reachability search on
// the headline fusion (2 addresses, 1 cache per cluster, evictions free).
func BenchmarkDeadlockFreedom(b *testing.B) {
	var states int
	for i := 0; i < b.N; i++ {
		f, err := core.Fuse(core.Options{},
			protocols.MustByName(protocols.NameMESI), protocols.MustByName(protocols.NameRCCO))
		if err != nil {
			b.Fatal(err)
		}
		sys, _ := core.BuildSystem(f, []int{1, 1})
		sys.SetPrograms(engine.CheckDriver(2, 2, false))
		res := mcheck.Explore(sys, mcheck.Options{Evictions: true, HashCompaction: true})
		if res.Deadlocks > 0 || res.Truncated {
			b.Fatalf("deadlocks=%d truncated=%t", res.Deadlocks, res.Truncated)
		}
		states = res.States
	}
	b.ReportMetric(float64(states), "states")
}

// BenchmarkFigure10 regenerates the §VIII comparison at reduced trace
// scale (cmd/hgsim runs it at full scale).
func BenchmarkFigure10(b *testing.B) {
	var rows []sim.Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = sim.RunFigure10(sim.TableIII(), 0.15)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(sim.GeoMean(rows, func(r sim.Row) float64 { return r.SpeedupNoHS }), "gmean-noHS")
	b.ReportMetric(sim.GeoMean(rows, func(r sim.Row) float64 { return r.SpeedupWrHS }), "gmean-wrHS")
	b.ReportMetric(sim.GeoMean(rows, func(r sim.Row) float64 { return r.TrafficNoHS }), "traffic-noHS")
}

// BenchmarkAblationHandshake compares the three §VIII handshake variants
// on the handshake-sensitive benchmark (ligra-bf).
func BenchmarkAblationHandshake(b *testing.B) {
	cfg := sim.TableIII()
	params, err := workload.BenchmarkByName("ligra-bf")
	if err != nil {
		b.Fatal(err)
	}
	wl := workload.Generate(params, workload.Layout{BigCores: cfg.BigCores, TinyCores: cfg.TinyCores}).Scale(0.3)
	for _, v := range sim.Figure10Variants() {
		v := v
		b.Run(v.Name, func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				st, err := sim.RunBenchmark(cfg, v, wl)
				if err != nil {
					b.Fatal(err)
				}
				cycles = st.Cycles
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkAblationProxyPool sweeps the merged directory's bridging
// concurrency (the aggressive design's inter-address overlap).
func BenchmarkAblationProxyPool(b *testing.B) {
	cfg := sim.TableIII()
	params, _ := workload.BenchmarkByName("ligra-cc")
	wl := workload.Generate(params, workload.Layout{BigCores: cfg.BigCores, TinyCores: cfg.TinyCores}).Scale(0.3)
	for _, pool := range []int{1, 4, 16} {
		pool := pool
		b.Run(fmt.Sprintf("pool%d", pool), func(b *testing.B) {
			c := cfg
			c.ProxyPool = pool
			var cycles uint64
			for i := 0; i < b.N; i++ {
				st, err := sim.RunBenchmark(c, sim.Variant{Name: "noHS", Handshake: core.HSNone}, wl)
				if err != nil {
					b.Fatal(err)
				}
				cycles = st.Cycles
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkAblationConservative compares the conservative processor-centric
// design against the aggressive memory-centric one on the same workload
// (§VI-D2), using the MESI&RCC-O fusion where both are legal.
func BenchmarkAblationConservative(b *testing.B) {
	cfg := sim.TableIII()
	params, _ := workload.BenchmarkByName("cilk5-cs")
	wl := workload.Generate(params, workload.Layout{BigCores: cfg.BigCores, TinyCores: cfg.TinyCores}).Scale(0.3)
	for _, cons := range []bool{false, true} {
		cons := cons
		name := "aggressive"
		if cons {
			name = "conservative"
		}
		b.Run(name, func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				f, err := core.Fuse(core.Options{ForceConservative: cons, ProxyPool: cfg.ProxyPool},
					protocols.MustByName(protocols.NameMESI), protocols.MustByName(protocols.NameRCCO))
				if err != nil {
					b.Fatal(err)
				}
				s, err := sim.New(cfg, f, wl)
				if err != nil {
					b.Fatal(err)
				}
				st, err := s.Run()
				if err != nil {
					b.Fatal(err)
				}
				cycles = st.Cycles
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkMOSTTranslation measures the ArMOR table construction and
// SC-equivalent sequence derivation.
func BenchmarkMOSTTranslation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, id := range memmodel.AllIDs() {
			m := memmodel.MustByID(id)
			armor.BuildMOST(m)
			if _, err := armor.ProxyStoreSeq(id); err != nil {
				b.Fatal(err)
			}
			if _, err := armor.ProxyLoadSeq(id); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkStateExploration measures raw model-checker throughput on the
// homogeneous MSI Dekker configuration.
func BenchmarkStateExploration(b *testing.B) {
	progs := [][]spec.CoreReq{
		{{Op: spec.OpStore, Addr: 0, Value: 1}, {Op: spec.OpLoad, Addr: 1}},
		{{Op: spec.OpStore, Addr: 1, Value: 1}, {Op: spec.OpLoad, Addr: 0}},
	}
	var states int
	for i := 0; i < b.N; i++ {
		sys := mcheck.NewHomogeneous(protocols.MustByName(protocols.NameMSI), 2)
		sys.SetPrograms(progs)
		res := mcheck.Explore(sys, mcheck.Options{})
		states = res.States
	}
	b.ReportMetric(float64(states), "states")
}

// BenchmarkSmoke is the `make bench-smoke` target: a MaxStates-capped
// §VII-C search plus the 2-thread litmus shapes on the headline pair — a
// minutes-scale end-to-end health check of the checker and suite
// plumbing, not a measurement (hgbench and BenchmarkCompile measure).
func BenchmarkSmoke(b *testing.B) {
	b.Run("deadlock-capped", func(b *testing.B) {
		f, err := core.Fuse(core.Options{},
			protocols.MustByName(protocols.NameMESI), protocols.MustByName(protocols.NameRCCO))
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			sys, _ := core.BuildSystem(f, []int{1, 1})
			sys.SetPrograms(engine.CheckDriver(2, 2, false))
			res := mcheck.Explore(sys, mcheck.Options{
				Evictions: true, HashCompaction: true, MaxStates: 150000})
			if res.Deadlocks > 0 {
				b.Fatalf("deadlocks=%d within the %d-state cap", res.Deadlocks, res.MaxStates)
			}
		}
	})
	b.Run("litmus-2thread", func(b *testing.B) {
		pairs := [][]*spec.Protocol{{
			protocols.MustByName(protocols.NameMESI), protocols.MustByName(protocols.NameRCCO)}}
		for i := 0; i < b.N; i++ {
			rep, err := litmus.RunSuite(pairs, litmus.Options{MaxThreads: 2})
			if err != nil {
				b.Fatal(err)
			}
			if rep.Failed() > 0 {
				b.Fatalf("litmus failures:\n%s", rep)
			}
		}
	})
}

// BenchmarkFusion measures the synthesis step itself (analysis + fusion).
func BenchmarkFusion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := core.Fuse(core.Options{},
			protocols.MustByName(protocols.NameMESI), protocols.MustByName(protocols.NameRCCO))
		if err != nil {
			b.Fatal(err)
		}
	}
}

// benchRow is one measured row of a BENCH_*.json report: wall-clock
// seconds and, for rows that run a search, the state count it visited.
type benchRow struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	States  int     `json:"states,omitempty"`
	Note    string  `json:"note,omitempty"`
}

// benchRecorder accumulates named rows across a benchmark's subtests,
// keeping only the latest measurement per name (later -benchtime
// iterations overwrite earlier ones).
type benchRecorder struct {
	rows []benchRow
}

func (r *benchRecorder) record(name string, d time.Duration, states int, note string) {
	row := benchRow{Name: name, Seconds: float64(d.Milliseconds()) / 1000,
		States: states, Note: note}
	for j := range r.rows {
		if r.rows[j].Name == name {
			r.rows[j] = row
			return
		}
	}
	r.rows = append(r.rows, row)
}

// emitBench writes a benchmark report when the environment variable
// envVar names a file (`make bench-compile` sets BENCH_COMPILE_OUT).
func emitBench(b *testing.B, envVar string, rep any) {
	path := os.Getenv(envVar)
	if path == "" || b.Failed() {
		return
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	b.Logf("benchmark report written to %s", path)
}

// benchCompileReport is the BENCH_COMPILE.json v3 schema, written when the
// BENCH_COMPILE_OUT environment variable names a file (`make
// bench-compile`). v3 adds the runner metadata block and the memoized
// extraction row.
type benchCompileReport struct {
	Schema       string           `json:"schema"`
	Benchmark    string           `json:"benchmark"`
	Description  string           `json:"description"`
	Runner       benchmeta.Runner `json:"runner"`
	Cases        []benchRow       `json:"cases"`
	Amortization string           `json:"amortization"`
	Agreement    string           `json:"agreement"`
}

// BenchmarkCompile measures the compiled flat-table directory engine
// against the interpreted composite (BENCH_COMPILE.json, `make
// bench-compile`) on the §VII-C headline search: fused MESI & RCC-O, one
// cache per cluster, two addresses, evictions free, hash-compaction
// storage. The rows separate every phase of the compile-once/check-many
// lifecycle over the identical workload: the interpreted MergedDir, the
// system every fused check and litmus test searches; extraction alone;
// precompiled/check, the steady-state
// dispatch-only cost of an in-memory table; and the artifact path —
// serializing the table to its .hgcf binary form, cold-loading it back
// (PCC reparse, digest verification, every stored (state, message) pair
// replayed through the compiler, finalization), and a check through the
// cold-loaded table. State counts must agree across every searching row
// or the run aborts. With BENCH_COMPILE_OUT set, the measurements are
// written as BENCH_COMPILE.json v3 after the subtests finish.
func BenchmarkCompile(b *testing.B) {
	f, err := core.Fuse(core.Options{},
		protocols.MustByName(protocols.NameMESI), protocols.MustByName(protocols.NameRCCO))
	if err != nil {
		b.Fatal(err)
	}
	f.Freeze()
	progs := engine.CheckDriver(2, 2, false)
	opts := mcheck.Options{Evictions: true, HashCompaction: true, Workers: 1}
	ccfg := core.CompileConfig{CachesPerCluster: []int{1, 1}, Programs: progs,
		Evictions: true, MaxStates: 8 << 20, Workers: 1}
	var rec benchRecorder
	record := rec.record
	check := func(b *testing.B, res *mcheck.Result, want int) int {
		if res.Deadlocks > 0 || res.Truncated {
			b.Fatalf("deadlocks=%d truncated=%t", res.Deadlocks, res.Truncated)
		}
		if want != 0 && res.States != want {
			b.Fatalf("engines disagree: %d states, want %d", res.States, want)
		}
		b.ReportMetric(float64(res.States), "states")
		return res.States
	}
	var interpStates int
	b.Run("interpreted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sys, _ := core.BuildSystem(f, []int{1, 1})
			sys.SetPrograms(progs)
			runtime.GC() // settle preceding sub-benchmarks' garbage out of the timed window
			start := time.Now()
			res := mcheck.Explore(sys, opts)
			record("interpreted", time.Since(start), res.States,
				"the interpreted composite (core.BuildSystem), the system every fused check and litmus test searches: MergedDir's per-cluster dispatch, proxy clones and bridge phases, each distinct (component state, input) pair run once and replayed from the search's memo")
			interpStates = check(b, res, interpStates)
		}
	})
	var cf *core.CompiledFusion
	compile := func(b *testing.B) *core.CompiledFusion {
		c, err := core.Compile(f, ccfg)
		if err != nil {
			b.Fatal(err)
		}
		return c
	}
	b.Run("extract", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runtime.GC() // settle preceding sub-benchmarks' garbage out of the timed window
			start := time.Now()
			cf = compile(b)
			st := cf.Stats()
			record("extract", time.Since(start), st.ExtractStates,
				fmt.Sprintf("memoized table extraction (the default): exhaustive POR-off search of the compiled configuration with each distinct (state, message) pair interpreted exactly once — %d interpreted, %d served from the search's memo or the growing table — plus finalization (canonical renumbering and the FSM projection)",
					st.Interpreted, st.MemoHits))
			b.ReportMetric(float64(st.ExtractStates), "states")
			b.ReportMetric(float64(st.MemoHits), "memo-hits")
		}
	})
	b.Run("precompiled/check", func(b *testing.B) {
		if cf == nil {
			cf = compile(b)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runtime.GC() // settle preceding sub-benchmarks' garbage out of the timed window
			start := time.Now()
			res := mcheck.Explore(cf.System(), opts)
			record("precompiled/check", time.Since(start), res.States,
				"dispatch-only: the steady-state cost of checking an already-compiled in-memory table (a growing table seeded with the finished table's records and spans, so every pair replays)")
			check(b, res, interpStates)
		}
	})
	artPath := filepath.Join(b.TempDir(), "vii-c"+core.ArtifactExt)
	b.Run("artifact/write", func(b *testing.B) {
		if cf == nil {
			cf = compile(b)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runtime.GC() // settle preceding sub-benchmarks' garbage out of the timed window
			start := time.Now()
			if err := cf.WriteArtifact(artPath); err != nil {
				b.Fatal(err)
			}
			record("artifact/write", time.Since(start), 0,
				fmt.Sprintf("serialize the table to its versioned .hgcf binary form (digest %.12s…)", cf.Digest()))
		}
	})
	b.Run("artifact/coldload", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runtime.GC() // settle preceding sub-benchmarks' garbage out of the timed window
			start := time.Now()
			lcf, err := core.LoadArtifactFile(artPath)
			if err != nil {
				b.Fatal(err)
			}
			record("artifact/coldload", time.Since(start), 0,
				"one-read cold load of the serialized table: body checksum, PCC reparse, re-fusion, digest verification, every stored (state, message) pair replayed through the compiler (states, outcomes and POR references derived), finalization with the FSM projection, and the re-marshal that must reproduce the file byte for byte — replaces the extraction search entirely")
			b.ReportMetric(float64(lcf.DirStates()), "dirstates")
		}
	})
	b.Run("coldload+check", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runtime.GC() // settle preceding sub-benchmarks' garbage out of the timed window
			start := time.Now()
			lcf, err := core.LoadArtifactFile(artPath)
			if err != nil {
				b.Fatal(err)
			}
			res := mcheck.Explore(lcf.System(), opts)
			record("coldload+check", time.Since(start), res.States,
				"the amortized cold path with a warm cache: load the artifact from disk and run the §VII-C search through it")
			check(b, res, interpStates)
		}
	})
	emitBench(b, "BENCH_COMPILE_OUT", benchCompileReport{
		Schema:    "heterogen-bench-compile/v3",
		Benchmark: "BenchmarkCompile",
		Description: "Compiled flat-table directory engine vs the interpreted composite on the §VII-C headline search: fused MESI & RCC-O, 1 cache per cluster, 2 addresses, evictions at any time, hash-compaction storage, POR on; " +
			"BENCH_COMPILE_OUT=BENCH_COMPILE.json go test -bench 'BenchmarkCompile' -benchtime 1x (make bench-compile)",
		Runner: benchmeta.Collect("Workers:1 throughout, so rows measure the engines themselves on one core of the recorded runner; wall-clock varies a few percent run to run"),
		Cases:  rec.rows,
		Amortization: "compile once, check many: the .hgcf artifact makes the extraction a one-time cost, and a cold load from disk is under a second; " +
			"a check searches the interpreted composite (interpreted), whose own memo runs each distinct (component state, input) pair once inside the search, so it reads close to the dispatch-only row (precompiled/check) with no compile step; " +
			"the table is kept for what it produces (Table II, the artifact, the -table checks), not for check speed",
		Agreement: fmt.Sprintf("every searching row visits the identical %d states (the benchmark aborts on any disagreement); internal/core/compile_test.go and memo_test.go pin compiled-vs-interpreted-vs-loaded equality and byte-identity across extraction worker counts", interpStates),
	})
}
