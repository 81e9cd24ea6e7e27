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

// deadlockDriver matches cmd/hgcheck's stress workload.
func deadlockDriver(cores, addrs int) [][]spec.CoreReq {
	progs := make([][]spec.CoreReq, cores)
	for c := 0; c < cores; c++ {
		for a := 0; a < addrs; a++ {
			progs[c] = append(progs[c],
				spec.CoreReq{Op: spec.OpStore, Addr: spec.Addr(a), Value: c + 1},
				spec.CoreReq{Op: spec.OpLoad, Addr: spec.Addr((a + 1) % addrs)})
		}
		progs[c] = append(progs[c], spec.CoreReq{Op: spec.OpRelease}, spec.CoreReq{Op: spec.OpAcquire})
	}
	return progs
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
		sys.SetPrograms(deadlockDriver(2, 2))
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

// BenchmarkExploreParallel measures the worker-pool frontier search on the
// §VII-C fused reachability configuration across worker counts.
func BenchmarkExploreParallel(b *testing.B) {
	f, err := core.Fuse(core.Options{},
		protocols.MustByName(protocols.NameMESI), protocols.MustByName(protocols.NameRCCO))
	if err != nil {
		b.Fatal(err)
	}
	f.Freeze()
	cases := []struct {
		name    string
		workers int
	}{
		{"workers=1/binary", 1},
		{fmt.Sprintf("workers=%d/binary", runtime.NumCPU()), runtime.NumCPU()},
	}
	var rec benchRecorder
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			var states int
			for i := 0; i < b.N; i++ {
				sys, _ := core.BuildSystem(f, []int{1, 1})
				sys.SetPrograms(deadlockDriver(2, 2))
				start := time.Now()
				res := mcheck.Explore(sys, mcheck.Options{
					Evictions: true, HashCompaction: true,
					Workers: tc.workers})
				if res.Deadlocks > 0 || res.Truncated {
					b.Fatalf("deadlocks=%d truncated=%t", res.Deadlocks, res.Truncated)
				}
				rec.record(tc.name, time.Since(start), res.States, "")
				states = res.States
			}
			b.ReportMetric(float64(states), "states")
		})
	}
	emitBench(b, "BENCH_PARALLEL_OUT", benchReport{
		Schema:    "heterogen-bench-parallel/v2",
		Benchmark: "BenchmarkExploreParallel",
		Description: "§VII-C deadlock-freedom search on fused MESI & RCC-O, 1 cache per cluster, 2 addresses, evictions at any time, hash compaction, across worker counts; " +
			"BENCH_PARALLEL_OUT=BENCH_PARALLEL.json go test -bench BenchmarkExploreParallel -benchtime 1x (make bench)",
		Runner: benchmeta.Collect(searchNote()),
		Cases:  rec.rows,
	})
}

// symmetricDriver is deadlockDriver with the core-distinguishing store
// values removed: every core runs the identical program, so all caches of
// a cluster are interchangeable and the symmetry reduction applies.
func symmetricDriver(cores, addrs int) [][]spec.CoreReq {
	var prog []spec.CoreReq
	for a := 0; a < addrs; a++ {
		prog = append(prog,
			spec.CoreReq{Op: spec.OpStore, Addr: spec.Addr(a), Value: 1},
			spec.CoreReq{Op: spec.OpLoad, Addr: spec.Addr((a + 1) % addrs)})
	}
	prog = append(prog, spec.CoreReq{Op: spec.OpRelease}, spec.CoreReq{Op: spec.OpAcquire})
	progs := make([][]spec.CoreReq, cores)
	for c := range progs {
		progs[c] = prog
	}
	return progs
}

// BenchmarkExploreSymmetry measures the cache-permutation symmetry
// reduction against the unreduced search on fully symmetric
// configurations (BENCH_SYMMETRY.json): the fused §VII-C machine with two
// caches per cluster, and a homogeneous MESI triple with evictions, one
// address each (two addresses push the unreduced fused space past 6M
// states). The states metric shows the visited-set reduction (≈ group
// order).
func BenchmarkExploreSymmetry(b *testing.B) {
	f, err := core.Fuse(core.Options{},
		protocols.MustByName(protocols.NameMESI), protocols.MustByName(protocols.NameRCCO))
	if err != nil {
		b.Fatal(err)
	}
	f.Freeze()
	fused := func() *mcheck.System {
		sys, _ := core.BuildSystem(f, []int{2, 2})
		sys.SetPrograms(symmetricDriver(4, 1))
		return sys
	}
	homog := func() *mcheck.System {
		sys := mcheck.NewHomogeneous(protocols.MustByName(protocols.NameMESI), 3)
		sys.SetPrograms(symmetricDriver(3, 1))
		return sys
	}
	cases := []struct {
		name  string
		build func() *mcheck.System
		opts  mcheck.Options
	}{
		{"fused-2x2/plain", fused, mcheck.Options{HashCompaction: true}},
		{"fused-2x2/symmetry", fused, mcheck.Options{HashCompaction: true, Symmetry: true}},
		{"mesi-3-evict/plain", homog, mcheck.Options{HashCompaction: true, Evictions: true}},
		{"mesi-3-evict/symmetry", homog, mcheck.Options{HashCompaction: true, Evictions: true, Symmetry: true}},
	}
	var rec benchRecorder
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			var res *mcheck.Result
			for i := 0; i < b.N; i++ {
				start := time.Now()
				res = mcheck.Explore(tc.build(), tc.opts)
				if res.Deadlocks > 0 || res.Truncated {
					b.Fatalf("deadlocks=%d truncated=%t", res.Deadlocks, res.Truncated)
				}
				rec.record(tc.name, time.Since(start), res.States,
					fmt.Sprintf("%d symmetry perms", res.SymmetryPerms))
			}
			b.ReportMetric(float64(res.States), "states")
			b.ReportMetric(float64(res.SymmetryPerms), "perms")
		})
	}
	emitBench(b, "BENCH_SYMMETRY_OUT", benchReport{
		Schema:    "heterogen-bench-symmetry/v2",
		Benchmark: "BenchmarkExploreSymmetry",
		Description: "cache-permutation symmetry reduction vs the unreduced search on fully symmetric configurations (fused MESI & RCC-O 2x2, homogeneous MESI triple with evictions); " +
			"BENCH_SYMMETRY_OUT=BENCH_SYMMETRY.json go test -bench BenchmarkExploreSymmetry -benchtime 1x (make bench-symmetry)",
		Runner: benchmeta.Collect(searchNote()),
		Cases:  rec.rows,
	})
}

// BenchmarkExplorePOR measures the ample-set partial order reduction
// (BENCH_POR.json, `make bench-por`) on the §VII-C reachability search:
// the headline fused configuration with POR off vs on under the
// production hash-compacted storage (sequential, so rows are directly
// comparable to BENCH_STORAGE.json), POR stacked on the disk-spilling
// frontier, and POR combined with the symmetry reduction on the
// symmetric 2×2 fusion. Every case asserts deadlock freedom, so a
// reduction that changed the verdict would fail the benchmark rather
// than report a fast wrong answer.
func BenchmarkExplorePOR(b *testing.B) {
	f, err := core.Fuse(core.Options{},
		protocols.MustByName(protocols.NameMESI), protocols.MustByName(protocols.NameRCCO))
	if err != nil {
		b.Fatal(err)
	}
	f.Freeze()
	headline := func() *mcheck.System {
		sys, _ := core.BuildSystem(f, []int{1, 1})
		sys.SetPrograms(deadlockDriver(2, 2))
		return sys
	}
	sym2x2 := func() *mcheck.System {
		sys, _ := core.BuildSystem(f, []int{2, 2})
		sys.SetPrograms(symmetricDriver(4, 1))
		return sys
	}
	cases := []struct {
		name  string
		build func() *mcheck.System
		opts  mcheck.Options
	}{
		{"vii-c/por=off", headline,
			mcheck.Options{Evictions: true, HashCompaction: true, Workers: 1, POR: mcheck.POROff}},
		{"vii-c/por=on", headline,
			mcheck.Options{Evictions: true, HashCompaction: true, Workers: 1}},
		{"vii-c/por=on+spill", headline,
			mcheck.Options{Evictions: true, HashCompaction: true, Workers: 1, SpillDir: "auto"}},
		{"fused-2x2-sym/por=off", sym2x2,
			mcheck.Options{HashCompaction: true, Symmetry: true, Workers: 1, POR: mcheck.POROff}},
		{"fused-2x2-sym/por=on", sym2x2,
			mcheck.Options{HashCompaction: true, Symmetry: true, Workers: 1}},
	}
	var rec benchRecorder
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			var res *mcheck.Result
			for i := 0; i < b.N; i++ {
				opts := tc.opts
				if opts.SpillDir == "auto" {
					opts.SpillDir = b.TempDir()
				}
				start := time.Now()
				res = mcheck.Explore(tc.build(), opts)
				if res.Deadlocks > 0 || res.Truncated {
					b.Fatalf("deadlocks=%d truncated=%t", res.Deadlocks, res.Truncated)
				}
				rec.record(tc.name, time.Since(start), res.States,
					fmt.Sprintf("%d ample-reduced states", res.PORReduced))
			}
			b.ReportMetric(float64(res.States), "states")
			b.ReportMetric(float64(res.PORReduced), "ample-states")
		})
	}
	emitBench(b, "BENCH_POR_OUT", benchReport{
		Schema:    "heterogen-bench-por/v2",
		Benchmark: "BenchmarkExplorePOR",
		Description: "ample-set partial order reduction on the §VII-C reachability search, POR off vs on, stacked on spilling and symmetry; every case asserts deadlock freedom; " +
			"BENCH_POR_OUT=BENCH_POR.json go test -bench BenchmarkExplorePOR -benchtime 1x (make bench-por)",
		Runner: benchmeta.Collect(searchNote()),
		Cases:  rec.rows,
	})
}

// BenchmarkSmoke is the `make bench-smoke` target: a MaxStates-capped
// §VII-C search plus the 2-thread litmus shapes on the headline pair — a
// minutes-scale end-to-end health check of the checker and suite
// plumbing, not a measurement (numbers in BENCH_*.json come from the full
// bench targets).
func BenchmarkSmoke(b *testing.B) {
	b.Run("deadlock-capped", func(b *testing.B) {
		f, err := core.Fuse(core.Options{},
			protocols.MustByName(protocols.NameMESI), protocols.MustByName(protocols.NameRCCO))
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			sys, _ := core.BuildSystem(f, []int{1, 1})
			sys.SetPrograms(deadlockDriver(2, 2))
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

// BenchmarkLitmusSuiteParallel measures the suite worker pool on the
// 2-thread shapes over every Table II pair (the BenchmarkLitmusSuite
// workload routed through RunSuite).
func BenchmarkLitmusSuiteParallel(b *testing.B) {
	var pairs [][]*spec.Protocol
	for _, pair := range core.TableIIPairs() {
		pairs = append(pairs, []*spec.Protocol{
			protocols.MustByName(pair[0]), protocols.MustByName(pair[1])})
	}
	for _, w := range []int{1, runtime.NumCPU()} {
		w := w
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			var tests int
			for i := 0; i < b.N; i++ {
				rep, err := litmus.RunSuite(pairs, litmus.Options{MaxThreads: 2, Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Failed() > 0 {
					b.Fatalf("litmus failures:\n%s", rep)
				}
				tests = len(rep.Results)
			}
			b.ReportMetric(float64(tests), "tests")
		})
	}
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

// benchReport is the shared envelope of the mcheck-search benchmark
// reports (BENCH_PARALLEL/SYMMETRY/POR/STORAGE.json): schema, the runner
// metadata every report embeds the same way (benchmeta), and the rows.
type benchReport struct {
	Schema      string           `json:"schema"`
	Benchmark   string           `json:"benchmark"`
	Description string           `json:"description"`
	Runner      benchmeta.Runner `json:"runner"`
	Cases       []benchRow       `json:"cases"`
}

// searchNote is the caveat every search report carries, derived from the
// core count of the runner that produced it.
func searchNote() string {
	n := runtime.NumCPU()
	if n == 1 {
		return "single-core runner: worker counts above 1 measure scheduling overhead, not parallel speedup; wall-clock varies a few percent run to run"
	}
	return fmt.Sprintf("%d-core runner: a workers=%d row runs one search worker per core, so its speedup over workers=1 is measured on this runner; wall-clock varies a few percent run to run", n, n)
}

// emitBench writes a benchmark report when the BENCH_*_OUT environment
// variable names a file — the shared output convention of every bench-*
// make target (and of `make bench-all`).
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
// bench-compile`). v3 adds the runner metadata block and the memoized /
// non-memoized extraction rows.
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
// lifecycle over the identical workload: the interpreted MergedDir;
// extraction alone; growing/check, the search over a fresh growing table
// that every fused check runs; precompiled/check, the steady-state
// dispatch-only cost of an in-memory table; and the artifact path —
// serializing the table to its .hgcf binary form, cold-loading it back
// (PCC reparse, digest verification, derived-state rebuild), and a check
// through the cold-loaded table. State counts must agree across every searching row
// or the run aborts. With BENCH_COMPILE_OUT set, the measurements are
// written as BENCH_COMPILE.json v3 after the subtests finish.
func BenchmarkCompile(b *testing.B) {
	f, err := core.Fuse(core.Options{},
		protocols.MustByName(protocols.NameMESI), protocols.MustByName(protocols.NameRCCO))
	if err != nil {
		b.Fatal(err)
	}
	f.Freeze()
	progs := deadlockDriver(2, 2)
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
				"interpreted composite MergedDir: per-cluster dispatch, proxy clones, bridge phases")
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
				fmt.Sprintf("memoized table extraction (the default): exhaustive POR-off search of the compiled configuration with each distinct (state, message) pair interpreted exactly once — %d interpreted, %d replayed from the growing table — plus dense-table finalization",
					st.Interpreted, st.MemoHits))
			b.ReportMetric(float64(st.ExtractStates), "states")
			b.ReportMetric(float64(st.MemoHits), "memo-hits")
		}
	})
	b.Run("extract/nomemo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			nmCfg := ccfg
			nmCfg.NoMemo = true
			runtime.GC() // settle preceding sub-benchmarks' garbage out of the timed window
			start := time.Now()
			nm, err := core.Compile(f, nmCfg)
			if err != nil {
				b.Fatal(err)
			}
			record("extract/nomemo", time.Since(start), nm.Stats().ExtractStates,
				"non-memoized extraction: every delivery re-runs the interpreted MergedDir (proxy clones, bridge phases) on the scratch directory and re-records its outcome — kept as the injectivity cross-check")
			if cf == nil {
				cf = nm
			} else if nm.Digest() != cf.Digest() {
				b.Fatalf("non-memoized digest %s != memoized digest %s — memoization changed the extracted table",
					nm.Digest(), cf.Digest())
			}
		}
	})
	b.Run("growing/check", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sys := core.FusedSystem(f, []int{1, 1}, progs)
			runtime.GC() // settle preceding sub-benchmarks' garbage out of the timed window
			start := time.Now()
			res := mcheck.Explore(sys, opts)
			record("growing/check", time.Since(start), res.States,
				"the §VII-C search over a fresh growing table (core.FusedSystem), the engine every fused check and litmus search runs on: each distinct (state, message) pair is interpreted once, then replayed")
			check(b, res, interpStates)
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
				"dispatch-only: the steady-state cost of checking an already-compiled in-memory table (a growing table seeded with its dense entry spans, so every pair replays)")
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
				fmt.Sprintf("serialize the dense table to its versioned .hgcf binary form (digest %.12s…)", cf.Digest()))
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
				"one-read cold load of the serialized table: PCC reparse, re-fusion, digest verification, encoding cross-check — replaces the extraction entirely")
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
		Amortization: "compile once, check many: a single extraction replaces the MergedDir interpreter with a binary search over dense per-state entry spans, and the .hgcf artifact makes the extraction itself a one-time cost — " +
			"a cold load from disk is under a second, so every search after the first pays only the dispatch-only row; " +
			"memoized extraction (extract vs extract/nomemo) cuts even the one-time cost; " +
			"a check without an artifact searches a fresh growing table (growing/check), which pays each distinct (state, message) pair's interpretation once inside the search itself",
		Agreement: fmt.Sprintf("every searching row visits the identical %d states and every extracting row produces the identical artifact digest (the benchmark aborts on any disagreement); internal/core/compile_test.go and memo_test.go pin compiled-vs-interpreted-vs-loaded equality and workers x memoization byte-identity", interpStates),
	})
}

// BenchmarkStorage measures the memory-bounded state-storage engine
// (BENCH_STORAGE.json, `make bench-storage`). The mode cases run the
// §VII-C headline search (fused MESI & RCC-O, one cache per cluster, two
// addresses, evictions free, ~1.1M states) under each visited-set mode —
// exact, hash-compacted fingerprint table, bitstate filter, and hash
// compaction with the disk-spilling frontier — reporting bytes/state and
// table size alongside wall time. The vii-c-2x2 case is the previously
// infeasible configuration: two caches per cluster free-running to a 10M-
// state bound with the visited table pinned at a fixed budget and the
// frontier spilling to disk.
func BenchmarkStorage(b *testing.B) {
	f, err := core.Fuse(core.Options{},
		protocols.MustByName(protocols.NameMESI), protocols.MustByName(protocols.NameRCCO))
	if err != nil {
		b.Fatal(err)
	}
	f.Freeze()
	build := func(per int) *mcheck.System {
		sys, _ := core.BuildSystem(f, []int{per, per})
		sys.SetPrograms(deadlockDriver(2*per, 2))
		return sys
	}
	report := func(b *testing.B, res *mcheck.Result) {
		b.ReportMetric(float64(res.States), "states")
		b.ReportMetric(res.BytesPerState, "bytes/state")
		b.ReportMetric(float64(res.TableBytes)/(1<<20), "table_MB")
		if res.SpilledBytes > 0 {
			b.ReportMetric(float64(res.SpilledBytes)/(1<<20), "spilled_MB")
		}
	}
	modes := []struct {
		name string
		opts mcheck.Options
	}{
		{"exact", mcheck.Options{}},
		{"hash", mcheck.Options{HashCompaction: true}},
		{"bitstate", mcheck.Options{Bitstate: true}},
		{"hash+spill", mcheck.Options{HashCompaction: true, SpillDir: "auto"}},
	}
	var rec benchRecorder
	for _, tc := range modes {
		tc := tc
		b.Run("mode="+tc.name, func(b *testing.B) {
			var res *mcheck.Result
			for i := 0; i < b.N; i++ {
				opts := tc.opts
				opts.Evictions = true
				opts.Workers = 1
				if opts.SpillDir == "auto" {
					opts.SpillDir = b.TempDir()
				}
				start := time.Now()
				res = mcheck.Explore(build(1), opts)
				if res.Deadlocks > 0 || res.Truncated {
					b.Fatalf("deadlocks=%d truncated=%t", res.Deadlocks, res.Truncated)
				}
				rec.record("mode="+tc.name, time.Since(start), res.States,
					fmt.Sprintf("%.1f bytes/state, %d table bytes", res.BytesPerState, res.TableBytes))
			}
			report(b, res)
		})
	}

	// The feasibility run: 2 caches per cluster, visited table capped at
	// 256 MiB (the 10M fingerprints occupy half of a 128 MiB generation),
	// frontier on disk. Infeasible under exact storage on a 15 GB machine:
	// ≥10M states × ~300 bytes of encoding+map+frontier clones.
	b.Run("vii-c-2x2", func(b *testing.B) {
		var res *mcheck.Result
		for i := 0; i < b.N; i++ {
			start := time.Now()
			res = mcheck.Explore(build(2), mcheck.Options{
				Evictions: true, Workers: 1,
				HashCompaction: true, MemBudget: 256 << 20,
				SpillDir: b.TempDir(), MaxStates: 10 << 20,
			})
			if res.Deadlocks > 0 {
				b.Fatalf("deadlocks=%d", res.Deadlocks)
			}
			// Closure or the 10M-visited-state bound are both success;
			// running out of the fixed memory budget is the failure this
			// engine exists to prevent. (Result.States counts expanded
			// states, which lag the visited set by the frontier width.)
			if res.BudgetFull {
				b.Fatalf("memory budget exhausted at %d states", res.States)
			}
			rec.record("vii-c-2x2", time.Since(start), res.States,
				fmt.Sprintf("fixed 256 MiB visited budget, frontier on disk (%d states / %d MB spilled)",
					res.SpilledStates, res.SpilledBytes>>20))
		}
		report(b, res)
	})
	emitBench(b, "BENCH_STORAGE_OUT", benchReport{
		Schema:    "heterogen-bench-storage/v2",
		Benchmark: "BenchmarkStorage",
		Description: "memory-bounded state storage on the §VII-C headline search under each visited-set mode, plus the 2-caches-per-cluster free run to the 10M-state bound in fixed memory; " +
			"BENCH_STORAGE_OUT=BENCH_STORAGE.json go test -bench BenchmarkStorage -benchtime 1x (make bench-storage)",
		Runner: benchmeta.Collect(searchNote()),
		Cases:  rec.rows,
	})
}
