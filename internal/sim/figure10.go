package sim

import (
	"fmt"
	"math"
	"strings"

	"heterogen/internal/core"
	"heterogen/internal/protocols"
	"heterogen/internal/workload"
)

// Variant identifies one protocol configuration of the §VIII comparison.
type Variant struct {
	Name      string
	Handshake core.HandshakeMode
}

// Figure10Variants returns the three §VIII configurations: the
// manually-fused HCC baseline (conservative handshaking on every block
// transfer) and the two HeteroGen outputs (no handshakes; write-only
// handshakes).
func Figure10Variants() []Variant {
	return []Variant{
		{Name: "HCC", Handshake: core.HSAll},
		{Name: "HeteroGen-noHS", Handshake: core.HSNone},
		{Name: "HeteroGen-wrHS", Handshake: core.HSWrites},
	}
}

// Row is one benchmark's Figure 10 entry: the three variants' raw
// cycle/flit counts and the derived ratios.
type Row struct {
	// Benchmark is the workload parameter-point name.
	Benchmark string `json:"benchmark"`
	// Pair names the simulated protocol pair (big cluster, tiny cluster);
	// the Figure 10 machine is {MESI, RCC-O}.
	Pair [2]string `json:"pair"`
	// Cycles is the simulated completion time per variant, in cycles.
	Cycles map[string]uint64 `json:"cycles"`
	// Flits is total NoC traffic per variant, in flits.
	Flits map[string]uint64 `json:"flits"`
	// SpeedupNoHS is HCC cycles / HeteroGen-noHS cycles (>1 = HeteroGen
	// faster); SpeedupWrHS likewise for HeteroGen-wrHS.
	SpeedupNoHS float64 `json:"speedup_nohs"`
	SpeedupWrHS float64 `json:"speedup_wrhs"`
	// TrafficNoHS is HeteroGen-noHS flits / HCC flits (<1 = HeteroGen
	// sends less traffic); TrafficWrHS likewise.
	TrafficNoHS float64 `json:"traffic_nohs"`
	TrafficWrHS float64 `json:"traffic_wrhs"`
}

// DefaultPair is the §VIII case-study machine: MESI big cores over an
// RCC-O (DeNovo-like) tiny cluster.
func DefaultPair() [2]string {
	return [2]string{protocols.NameMESI, protocols.NameRCCO}
}

// RunBenchmark simulates one benchmark under one variant on the default
// MESI/RCC-O pair.
func RunBenchmark(cfg Config, v Variant, wl *workload.Workload) (*Stats, error) {
	return RunBenchmarkPair(cfg, DefaultPair(), v, wl)
}

// RunBenchmarkPair simulates one benchmark under one variant with the
// given protocol pair (big cluster, tiny cluster).
func RunBenchmarkPair(cfg Config, pair [2]string, v Variant, wl *workload.Workload) (*Stats, error) {
	big, err := protocols.ByName(pair[0])
	if err != nil {
		return nil, err
	}
	tiny, err := protocols.ByName(pair[1])
	if err != nil {
		return nil, err
	}
	f, err := core.Fuse(core.Options{Handshake: v.Handshake, ProxyPool: cfg.ProxyPool}, big, tiny)
	if err != nil {
		return nil, err
	}
	s, err := New(cfg, f, wl)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// RunFigure10 regenerates Figure 10: for each of the 13 benchmarks, the
// speedup of the two HeteroGen variants over the HCC baseline, plus the
// network-traffic ratios. scale shrinks the traces for quick runs. The
// matrix runs on the worker pool (all cores); rows come back in benchmark
// order regardless of scheduling.
func RunFigure10(cfg Config, scale float64) ([]Row, error) {
	return RunMatrix(cfg, DefaultPair(), workload.Benchmarks(), scale, 0)
}

// RunMatrix sweeps benchmarks × Figure10Variants on one protocol pair with
// the given worker parallelism (0 = all cores) and assembles the Figure 10
// rows deterministically (benchmark order, independent of scheduling).
func RunMatrix(cfg Config, pair [2]string, benchmarks []workload.Params, scale float64, workers int) ([]Row, error) {
	variants := Figure10Variants()
	var jobs []Job
	for _, params := range benchmarks {
		for _, v := range variants {
			jobs = append(jobs, Job{Pair: pair, Params: params, Variant: v, Scale: scale})
		}
	}
	results := Sweep(cfg, jobs, workers)
	var rows []Row
	for bi, params := range benchmarks {
		row := Row{Benchmark: params.Name, Pair: pair,
			Cycles: map[string]uint64{}, Flits: map[string]uint64{}}
		for vi, v := range variants {
			r := results[bi*len(variants)+vi]
			if r.Err != nil {
				return nil, fmt.Errorf("%s/%s: %w", params.Name, v.Name, r.Err)
			}
			row.Cycles[v.Name] = r.Stats.Cycles
			row.Flits[v.Name] = r.Stats.Flits
		}
		hcc := float64(row.Cycles["HCC"])
		row.SpeedupNoHS = hcc / float64(row.Cycles["HeteroGen-noHS"])
		row.SpeedupWrHS = hcc / float64(row.Cycles["HeteroGen-wrHS"])
		hf := float64(row.Flits["HCC"])
		row.TrafficNoHS = float64(row.Flits["HeteroGen-noHS"]) / hf
		row.TrafficWrHS = float64(row.Flits["HeteroGen-wrHS"]) / hf
		rows = append(rows, row)
	}
	return rows, nil
}

// GeoMean computes the geometric mean of a selector over rows.
func GeoMean(rows []Row, sel func(Row) float64) float64 {
	if len(rows) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range rows {
		sum += math.Log(sel(r))
	}
	return math.Exp(sum / float64(len(rows)))
}

// FormatFigure10 renders the rows as the Figure 10 table (speedup over
// HCC, no-handshake and write-handshake variants) plus the traffic ratios
// and geometric means.
func FormatFigure10(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10: speedup of HeteroGen over HCC (and NoC traffic vs HCC)\n")
	fmt.Fprintf(&b, "%-14s %12s %12s %14s %14s\n", "benchmark", "noHS-speedup", "wrHS-speedup", "noHS-traffic", "wrHS-traffic")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %12.3f %12.3f %14.3f %14.3f\n",
			r.Benchmark, r.SpeedupNoHS, r.SpeedupWrHS, r.TrafficNoHS, r.TrafficWrHS)
	}
	fmt.Fprintf(&b, "%-14s %12.3f %12.3f %14.3f %14.3f\n", "gmean",
		GeoMean(rows, func(r Row) float64 { return r.SpeedupNoHS }),
		GeoMean(rows, func(r Row) float64 { return r.SpeedupWrHS }),
		GeoMean(rows, func(r Row) float64 { return r.TrafficNoHS }),
		GeoMean(rows, func(r Row) float64 { return r.TrafficWrHS }))
	return b.String()
}
