// Command hgcheck model-checks protocols for deadlock freedom (§VII-C):
// exhaustive search over small configurations (caches per cluster,
// addresses) with evictions permitted at any time, using state hashing for
// the larger configurations. It is a thin front end over the engine layer
// (internal/engine) — the same requests the hgserve daemon runs.
//
// Usage:
//
//	hgcheck -protocol MSI -caches 3            # homogeneous
//	hgcheck -pair MESI,RCC-O -caches 2         # fused, 2 caches per cluster
//	hgcheck -pair MESI,RCC-O -caches 2 -mem 512MiB -progress 10s
//	hgcheck -pair MESI,RCC-O -caches 2 -por=0   # full unreduced interleaving space
//	hgcheck -table t.hgcf              # check a serialized artifact's own config
//	hgcheck -pair MESI,RCC-O -table t.hgcf  # ... seeds the check of the flags
//	hgcheck -pair MESI,RCC-O -timeout 30s   # cancel after 30s, print the partial result
//	hgcheck -pair MESI,RCC-O -json          # machine-readable result on stdout
//	hgcheck -protocol MSI -cpuprofile cpu.pprof # profile the search
//
// ^C (or -timeout firing) cancels the search cooperatively: the partial
// result — states expanded so far, storage accounting, omission bound —
// still prints, and the command exits nonzero.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"heterogen/internal/cliopts"
	"heterogen/internal/core"
	"heterogen/internal/engine"
)

// checkConfig carries the resolved command-line configuration.
type checkConfig struct {
	proto, pair string
	caches      int
	addrs       int
	table       string
	jsonOut     bool
	progress    time.Duration
	search      cliopts.Search
}

func main() {
	var cfg checkConfig
	cfg.search.Hash = true // the deadlock sweeps are the big configurations
	flag.StringVar(&cfg.proto, "protocol", "", "homogeneous protocol to check")
	flag.StringVar(&cfg.pair, "pair", "", "protocol pair A,B to fuse and check")
	flag.IntVar(&cfg.caches, "caches", 2, "caches (per cluster for -pair)")
	flag.IntVar(&cfg.addrs, "addrs", 2, "addresses in the driver workload")
	mem := flag.String("mem", "", "visited-set memory budget in either storage mode, e.g. 512MiB or 2GiB (default: 8GiB)")
	flag.IntVar(&cfg.search.MaxStates, "max-states", engine.DefaultCheckMaxStates, "state budget")
	flag.StringVar(&cfg.table, "table", "", "check a compiled-table .hgcf artifact (alone: its baked config; with -pair: seeds the check, and must hold the same fusion over the same caches)")
	flag.BoolVar(&cfg.jsonOut, "json", false, "print the result as JSON on stdout (diagnostics stay on stderr)")
	flag.DurationVar(&cfg.progress, "progress", 0, "log states/sec, frontier depth, load factor and heap every interval (e.g. 10s; 0 = silent)")
	cfg.search.Register(flag.CommandLine)
	flag.Parse()

	var err error
	if cfg.search.MemBudget, err = cliopts.ParseBytes(*mem); err != nil {
		fmt.Fprintf(os.Stderr, "hgcheck: -mem: %v\n", err)
		os.Exit(1)
	}
	stopProf, err := cfg.search.StartProfiling()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hgcheck:", err)
		os.Exit(1)
	}
	ctx, stop := cfg.search.Context()
	runErr := run(ctx, cfg)
	stop()
	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, "hgcheck:", err)
		if runErr == nil {
			runErr = err
		}
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "hgcheck:", runErr)
		os.Exit(1)
	}
}

// request maps the flags onto the engine's structured form.
func (cfg checkConfig) request() (engine.CheckRequest, error) {
	req := engine.CheckRequest{
		Protocol: cfg.proto,
		Caches:   cfg.caches,
		Addrs:    cfg.addrs,
		Table:    cfg.table,
		Search:   cfg.search.SearchOptions,
	}
	if cfg.pair != "" {
		parts := strings.Split(cfg.pair, ",")
		if len(parts) != 2 {
			return req, fmt.Errorf("-pair needs exactly two protocols")
		}
		req.Pair = parts
	}
	return req, nil
}

func run(ctx context.Context, cfg checkConfig) error {
	if cfg.proto == "" && cfg.pair == "" && cfg.table == "" {
		flag.Usage()
		return nil
	}
	req, err := cfg.request()
	if err != nil {
		return err
	}
	hooks := engine.Hooks{
		OnCompiled: func(name string, stats core.CompileStats) {
			fmt.Fprintf(os.Stderr, "hgcheck: %s: %s\n", name, stats)
		},
	}
	if cfg.progress > 0 {
		hooks.ProgressEvery = cfg.progress
		hooks.OnProgress = cliopts.EngineProgressPrinter(os.Stderr)
	}
	res, err := engine.Check(ctx, req, hooks)
	if err != nil {
		return err
	}
	if cfg.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return err
		}
		return res.Verdict()
	}
	fmt.Printf("%s: %s\n", res.Name, &res.Result)
	if res.Storage != "" {
		fmt.Printf("storage: %s, %.1f bytes/state (%d table bytes, peak load %.2f)\n",
			res.Storage, res.BytesPerState, res.TableBytes, res.PeakLoadFactor)
	}
	if res.Deadlocks > 0 {
		fmt.Println("deadlock state (lex-least):", res.DeadlockAt)
	}
	err = res.Verdict()
	switch {
	case err == nil:
		fmt.Println("deadlock-free (exhaustive)")
	case res.Cancelled:
		err = fmt.Errorf("%w: %w", err, ctx.Err())
	}
	return err
}
