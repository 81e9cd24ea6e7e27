// Command hgsim regenerates the §VIII performance comparison (Figure 10)
// and its widened sweep: the HeteroGen-generated protocols — without
// handshakes and with write handshakes — against the manually-fused
// HCC-style baseline, over synthetic benchmark workloads on the Table III
// heterogeneous system.
//
// Usage:
//
//	hgsim -params              # print the Table III configuration
//	hgsim                      # full Figure 10 (13 benchmarks × 3 variants)
//	hgsim -scale 0.25          # quick run with shortened traces
//	hgsim -bench cilk5-nq      # one benchmark, all three variants
//	hgsim -table t.hgcf        # sweep the pair a .hgcf artifact was built for
//	hgsim -family all          # add the stress trace families
//	hgsim -pairs               # sweep every Table II protocol pair
//	hgsim -seeds 3             # three workload seeds per parameter point
//	hgsim -mesh 12             # scale the machine to a 12×12 mesh
//	hgsim -workers 4           # sweep parallelism (0 = all cores)
//	hgsim -json BENCH_SIM.json # machine-readable report of the invocation
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"heterogen/internal/benchmeta"
	"heterogen/internal/cliopts"
	"heterogen/internal/core"
	"heterogen/internal/protocols"
	"heterogen/internal/sim"
	"heterogen/internal/spec"
	"heterogen/internal/workload"
)

// seedBaselineSeconds is the measured wall-clock of the pre-optimization
// (seed) sequential engine running the reference matrix — the full-scale
// 13-benchmark × 3-variant Figure 10 sweep on the MESI/RCC-O pair — on
// the single-core reference container. The report divides the same
// matrix's current wall-clock into it; EXPERIMENTS.md §VIII documents the
// measurement.
const seedBaselineSeconds = 29.7

func main() {
	params := flag.Bool("params", false, "print the simulated system parameters (Table III)")
	bench := flag.String("bench", "", "run a single benchmark or family point")
	scale := flag.Float64("scale", 1.0, "trace length scale factor")
	table := flag.String("table", "", "sweep the protocol pair a compiled .hgcf artifact was built for")
	family := flag.String("family", "bench", "parameter points to sweep: bench (Figure 10's 13), stress (trace families), all")
	pairs := flag.Bool("pairs", false, "also sweep every Table II protocol pair")
	seeds := flag.Int("seeds", 1, "workload seeds per parameter point")
	mesh := flag.Int("mesh", 8, "mesh dimension (8 = Table III's 8×8)")
	jsonPath := flag.String("json", "", "write a machine-readable report (BENCH_SIM schema) to this file")
	var perf cliopts.Perf
	var workers int
	perf.Register(flag.CommandLine, &workers)
	flag.Parse()

	if err := run(opts{params: *params, bench: *bench, scale: *scale,
		table: *table, family: *family, pairs: *pairs, seeds: *seeds, mesh: *mesh,
		jsonPath: *jsonPath, workers: workers, perf: perf}); err != nil {
		fmt.Fprintln(os.Stderr, "hgsim:", err)
		os.Exit(1)
	}
}

type opts struct {
	params   bool
	bench    string
	scale    float64
	table    string
	family   string
	pairs    bool
	seeds    int
	mesh     int
	jsonPath string
	workers  int
	perf     cliopts.Perf
}

// section is one sweep stage of the report.
type section struct {
	Name        string             `json:"name"`
	Pair        [2]string          `json:"pair"`
	Rows        []sim.Row          `json:"rows"`
	Gmean       map[string]float64 `json:"gmean"`
	WallSeconds float64            `json:"wall_seconds"`
}

// report is the BENCH_SIM.json schema: invocation metadata plus one
// section per sweep stage. The figure10 section of a full-scale default
// run additionally carries the seed-engine baseline comparison.
type report struct {
	Schema              string           `json:"schema"`
	Engine              string           `json:"engine"`
	Runner              benchmeta.Runner `json:"runner"`
	Workers             int              `json:"workers"`
	Mesh                int              `json:"mesh"`
	Scale               float64          `json:"scale"`
	Seeds               int              `json:"seeds"`
	Sections            []section        `json:"sections"`
	SeedBaselineSeconds float64          `json:"seed_baseline_seconds,omitempty"`
	SpeedupVsSeed       float64          `json:"speedup_vs_seed,omitempty"`
}

func run(o opts) error {
	cfg := sim.TableIIIMesh(o.mesh)
	defaultPair := sim.DefaultPair()
	if o.table != "" {
		// The artifact names the pair: reuse its constituent protocols for
		// the sweep.
		cf, err := core.LoadArtifactFile(o.table)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "hgsim: %s: %s\n", cf.Fusion().Name(), cf.Stats())
		ps := cf.Fusion().Protocols
		if len(ps) != 2 {
			return fmt.Errorf("-table: artifact fuses %d protocols, the sweep needs a pair", len(ps))
		}
		for _, p := range ps {
			if _, err := protocols.ByName(p.Name); err != nil {
				return fmt.Errorf("-table: artifact protocol %q is not a builtin: %w", p.Name, err)
			}
		}
		defaultPair = [2]string{ps[0].Name, ps[1].Name}
	}
	if o.params {
		fmt.Println(cfg.Format())
		return nil
	}
	stop, err := o.perf.StartProfiling()
	if err != nil {
		return err
	}
	defer stop()

	if o.bench != "" {
		return runSingle(cfg, o)
	}

	rep := &report{Schema: "heterogen-bench-sim/v2", Engine: core.EngineInterpreted,
		Runner:  benchmeta.Collect("sweep jobs run on the worker pool (workers 0 = all cores), so wall_seconds scale with the cores recorded here"),
		Workers: o.workers, Mesh: o.mesh, Scale: o.scale, Seeds: o.seeds}

	sweep := func(name string, pair [2]string, points []workload.Params) error {
		start := time.Now()
		rows, err := sim.RunMatrix(cfg, pair, seeded(points, o.seeds), o.scale, o.workers)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		wall := time.Since(start).Seconds()
		rep.Sections = append(rep.Sections, section{Name: name, Pair: pair, Rows: rows,
			Gmean: gmeans(rows), WallSeconds: wall})
		fmt.Printf("== %s (%s + %s, %s, %.2fs) ==\n", name, pair[0], pair[1], rep.Engine, wall)
		fmt.Print(sim.FormatFigure10(rows))
		fmt.Println()
		return nil
	}

	if o.family == "bench" || o.family == "all" {
		if err := sweep("figure10", defaultPair, workload.Benchmarks()); err != nil {
			return err
		}
	}
	if o.family == "stress" || o.family == "all" {
		if err := sweep("stress", defaultPair, workload.Families()); err != nil {
			return err
		}
	}
	if o.family != "bench" && o.family != "stress" && o.family != "all" {
		return fmt.Errorf("unknown -family %q (want bench, stress or all)", o.family)
	}
	if o.pairs {
		points := []workload.Params{}
		for _, name := range []string{"cilk5-nq", "ligra-bfs", "prodcons-chain"} {
			p, err := workload.BenchmarkByName(name)
			if err != nil {
				return err
			}
			points = append(points, p)
		}
		for _, pair := range core.TableIIPairs() {
			if err := sweep("pair:"+pair[0]+"+"+pair[1], pair, points); err != nil {
				return err
			}
		}
	}

	// The widened headline: gmean over the default-pair family sections
	// (not the Table II pair sweep, which repeats the default pair).
	var combined []sim.Row
	for _, s := range rep.Sections {
		if s.Name == "figure10" || s.Name == "stress" {
			combined = append(combined, s.Rows...)
		}
	}
	if len(combined) > 0 && len(rep.Sections) > 1 {
		g := gmeans(combined)
		fmt.Printf("== widened gmean over %d default-pair rows ==\n", len(combined))
		fmt.Printf("noHS-speedup %.3f  wrHS-speedup %.3f  noHS-traffic %.3f  wrHS-traffic %.3f\n\n",
			g["speedup_nohs"], g["speedup_wrhs"], g["traffic_nohs"], g["traffic_wrhs"])
	}

	// Seed-baseline comparison, only when the figure10 section is
	// apples-to-apples with the recorded measurement (full scale, Table III
	// mesh, single seed).
	if o.scale >= 1 && o.mesh == 8 && o.seeds == 1 {
		for _, s := range rep.Sections {
			if s.Name == "figure10" && s.WallSeconds > 0 {
				rep.SeedBaselineSeconds = seedBaselineSeconds
				rep.SpeedupVsSeed = seedBaselineSeconds / s.WallSeconds
				fmt.Printf("figure10 sweep wall-clock %.2fs vs seed sequential engine %.1fs: %.1fx\n",
					s.WallSeconds, seedBaselineSeconds, rep.SpeedupVsSeed)
			}
		}
	}

	if o.jsonPath != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.jsonPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("report written to %s\n", o.jsonPath)
	}
	return nil
}

// runSingle runs one parameter point across the three variants with full
// per-variant detail.
func runSingle(cfg sim.Config, o opts) error {
	p, err := workload.BenchmarkByName(o.bench)
	if err != nil {
		return err
	}
	wl := workload.Generate(p, workload.Layout{BigCores: cfg.BigCores, TinyCores: cfg.TinyCores}).Scale(o.scale)
	ops, loads, stores, syncs := wl.Stats()
	fmt.Printf("%s: %d ops (%d loads, %d stores, %d syncs)\n", p.Name, ops, loads, stores, syncs)
	for _, v := range sim.Figure10Variants() {
		st, err := sim.RunBenchmark(cfg, v, wl)
		if err != nil {
			return err
		}
		fmt.Printf("  %-16s cycles=%-10d msgs=%-8d flits=%-9d handshakes=%-6d avg-load-stall=%.1f\n",
			v.Name, st.Cycles, st.Messages, st.Flits, st.Handshakes,
			float64(st.LoadStall)/float64(max64(st.Loads, 1)))
		types := make([]string, 0, len(st.ByType))
		for mt := range st.ByType {
			types = append(types, string(mt))
		}
		sort.Strings(types)
		fmt.Printf("   traffic:")
		for _, mt := range types {
			fmt.Printf(" %s=%d", mt, st.ByType[spec.MsgType(mt)])
		}
		fmt.Println()
	}
	return nil
}

// seeded expands parameter points into seeds copies each: the original,
// then variants with distinct seeds and "@k"-suffixed names.
func seeded(points []workload.Params, seeds int) []workload.Params {
	if seeds <= 1 {
		return points
	}
	var out []workload.Params
	for _, p := range points {
		out = append(out, p)
		for k := 1; k < seeds; k++ {
			q := p
			q.Seed += int64(9973 * k)
			q.Name = fmt.Sprintf("%s@%d", p.Name, k)
			out = append(out, q)
		}
	}
	return out
}

// gmeans collects the four Figure 10 geometric means keyed by the JSON
// field names of the per-row ratios.
func gmeans(rows []sim.Row) map[string]float64 {
	return map[string]float64{
		"speedup_nohs": sim.GeoMean(rows, func(r sim.Row) float64 { return r.SpeedupNoHS }),
		"speedup_wrhs": sim.GeoMean(rows, func(r sim.Row) float64 { return r.SpeedupWrHS }),
		"traffic_nohs": sim.GeoMean(rows, func(r sim.Row) float64 { return r.TrafficNoHS }),
		"traffic_wrhs": sim.GeoMean(rows, func(r sim.Row) float64 { return r.TrafficWrHS }),
	}
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
