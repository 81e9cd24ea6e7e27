// Command heterogen is the synthesis front end: it lists the built-in
// protocols (Table I), fuses protocol pairs into heterogeneous merged
// directories, prints the §VI-D analyses and ArMOR translations, and
// enumerates the merged directory FSMs (Table II) by compiling each fused
// directory into its flat table. With -emit it prints the chosen artifact
// of that table. Every compile — -tableii, -pair, -emit, -compile-out —
// runs through the engine under -timeout and ^C, reports with -progress
// and reuses -compile-cache.
//
// Every compile's extraction search runs without reductions, so a
// deadlock it reaches is a verdict: -tableii and -pair print their rows
// and then exit 1 naming the lex-least deadlock state. The .hgcf artifact
// stores that verdict, so a table from -compile-cache or -compile-in
// exits the same way; `hgcheck -pair` gives a verdict at any
// configuration.
//
// Usage:
//
//	heterogen -list
//	heterogen -pair MESI,RCC-O            # fuse and describe
//	heterogen -pair MESI,RCC-O -fsm       # dump the compiled flat FSM
//	heterogen -pair MESI,RCC-O -emit table  # compile; print the flat FSM
//	heterogen -pair MESI,RCC-O -emit pcc    # compiled projection as PCC text
//	heterogen -pair MESI,RCC-O -emit murphi # compiled projection as Murphi
//	heterogen -pair MESI,RCC-O -emit dot    # compiled flat FSM as Graphviz
//	heterogen -tableii                    # all eight case studies
//	heterogen -tableii -full -workers 1   # full enumeration on one worker
//	heterogen -tableii -full -timeout 1m  # exit 1 if the compiles outrun a minute
//	heterogen -export MSI                 # print a protocol in PCC form
//	heterogen -spec my.pcc -pair -,MESI   # fuse a user protocol ("-")
//	heterogen -most                       # print the ArMOR MOST tables
//
// Compiled-table artifacts (the versioned .hgcf binary form):
//
//	heterogen -pair MESI,RCC-O -compile-out t.hgcf   # compile, serialize
//	heterogen -compile-in t.hgcf                     # load, summarize
//	heterogen -compile-in t.hgcf -emit table         # emit from the artifact
//	heterogen -pair MESI,RCC-O -emit pcc -o out.pcc  # write instead of stdout
//	heterogen -pair MESI,RCC-O -emit table -compile-cache ~/.cache/hg
//	                                      # reuse/populate the digest-keyed cache
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"heterogen/internal/armor"
	"heterogen/internal/cliopts"
	"heterogen/internal/core"
	"heterogen/internal/engine"
	exportpkg "heterogen/internal/export"
	"heterogen/internal/memmodel"
	"heterogen/internal/protocols"
	"heterogen/internal/spec"
)

// cliConfig carries the parsed command line.
type cliConfig struct {
	list       bool
	pair       string
	fsm        bool
	full       bool
	tableii    bool
	export     string
	specFile   string
	most       bool
	hs         string
	dot        string
	murphi     string
	emit       string
	out        string
	compileOut string
	compileIn  string
	cache      string
	progress   time.Duration
	search     cliopts.Search
}

func main() {
	var cfg cliConfig
	flag.BoolVar(&cfg.list, "list", false, "list the built-in protocols (Table I, then the extensions)")
	flag.StringVar(&cfg.pair, "pair", "", "comma-separated protocols to fuse ('-' uses -spec)")
	flag.BoolVar(&cfg.fsm, "fsm", false, "dump the enumerated merged-directory FSM")
	flag.BoolVar(&cfg.full, "full", false, "full FSM enumeration (explores evictions; slower)")
	flag.BoolVar(&cfg.tableii, "tableii", false, "enumerate all eight Table II case studies (exits 1 if an extraction reaches a deadlock)")
	flag.StringVar(&cfg.export, "export", "", "print a built-in protocol in the PCC-like format")
	flag.StringVar(&cfg.specFile, "spec", "", "PCC-like protocol description file")
	flag.BoolVar(&cfg.most, "most", false, "print the ArMOR ordering tables")
	flag.StringVar(&cfg.hs, "handshake", "none", "handshake variant: none|writes|all")
	flag.StringVar(&cfg.dot, "dot", "", "emit a protocol's controllers as Graphviz DOT")
	flag.StringVar(&cfg.murphi, "murphi", "", "emit a protocol as a CMurphi model")
	flag.StringVar(&cfg.emit, "emit", "", "compile the fused pair and print an artifact: table|pcc|murphi|dot|hgcf")
	flag.StringVar(&cfg.out, "o", "", "write -emit/-export output to this file instead of stdout")
	flag.StringVar(&cfg.compileOut, "compile-out", "", "serialize the compiled table to this .hgcf artifact file")
	flag.StringVar(&cfg.compileIn, "compile-in", "", "load a compiled table from this .hgcf artifact instead of compiling")
	flag.StringVar(&cfg.cache, "compile-cache", "", "cache compiled-table artifacts in this directory, keyed by (pair, config) digest (skips re-extraction)")
	flag.DurationVar(&cfg.progress, "progress", 0, "log extraction-search progress every interval during a compile (e.g. 10s; 0 = silent)")
	cfg.search.RegisterRun(flag.CommandLine)
	flag.Parse()

	stopProf, err := cfg.search.StartProfiling()
	if err != nil {
		fmt.Fprintln(os.Stderr, "heterogen:", err)
		os.Exit(1)
	}
	ctx, stop := cfg.search.Context()
	runErr := run(ctx, cfg)
	stop()
	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, "heterogen:", err)
		if runErr == nil {
			runErr = err
		}
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "heterogen:", runErr)
		os.Exit(1)
	}
}

func run(ctx context.Context, cfg cliConfig) error {
	switch {
	case cfg.dot != "":
		p, err := protocols.ByName(cfg.dot)
		if err != nil {
			return err
		}
		fmt.Print(exportpkg.DOTProtocol(p))
		return nil
	case cfg.murphi != "":
		p, err := protocols.ByName(cfg.murphi)
		if err != nil {
			return err
		}
		fmt.Print(exportpkg.Murphi(p, exportpkg.DefaultMurphiConfig()))
		return nil
	case cfg.list:
		tableI := protocols.TableINames()
		fmt.Println("Table I: protocols used in the case studies")
		for _, n := range tableI {
			fmt.Println(" ", protocols.Describe(protocols.MustByName(n)))
		}
		fmt.Println("Extensions beyond Table I")
		for _, n := range protocols.Names() {
			if !slices.Contains(tableI, n) {
				fmt.Println(" ", protocols.Describe(protocols.MustByName(n)))
			}
		}
		return nil
	case cfg.export != "":
		p, err := protocols.ByName(cfg.export)
		if err != nil {
			return err
		}
		return withOut(cfg.out, func(w io.Writer) error {
			_, err := io.WriteString(w, spec.ExportPCC(p))
			return err
		})
	case cfg.compileIn != "":
		cf, err := core.LoadArtifactFile(cfg.compileIn)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "heterogen: %s: %s\n", cf.Fusion().Name(), cf.Stats())
		if cfg.emit != "" {
			err = withOut(cfg.out, func(w io.Writer) error { return engine.Emit(cf, cfg.emit, w) })
		} else {
			err = withOut(cfg.out, func(w io.Writer) error { return summarize(w, cf) })
		}
		if err != nil {
			return err
		}
		return cf.Verdict()
	case cfg.most:
		for _, id := range memmodel.AllIDs() {
			fmt.Println(armor.BuildMOST(memmodel.MustByID(id)).Format())
		}
		return nil
	case cfg.tableii:
		var entries []*core.TableIIEntry
		var verdicts []error
		for _, pr := range core.TableIIPairs() {
			res, err := compile(ctx, cfg, pr[:])
			if err != nil {
				return err
			}
			entries = append(entries, &core.TableIIEntry{Pair: res.Name,
				States: res.FlatStates, Transitions: res.FlatEdges, Explored: res.Explored})
			verdicts = append(verdicts, res.Compiled().Verdict())
		}
		fmt.Print(core.FormatTableII(entries))
		return errors.Join(verdicts...)
	case cfg.pair != "":
		names := strings.Split(cfg.pair, ",")
		if len(names) < 2 {
			return fmt.Errorf("-pair needs at least two protocols")
		}
		res, err := compile(ctx, cfg, names)
		if err != nil {
			return err
		}
		cf := res.Compiled()
		if cfg.compileOut != "" {
			if err := cf.WriteArtifact(cfg.compileOut); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "heterogen: artifact written to %s (digest %s)\n", cfg.compileOut, res.Digest)
		}
		switch {
		case cfg.emit != "":
			err = withOut(cfg.out, func(w io.Writer) error { return engine.Emit(cf, cfg.emit, w) })
		case cfg.compileOut != "":
			err = withOut(cfg.out, func(w io.Writer) error { return summarize(w, cf) })
		default:
			fmt.Print(cf.Fusion().Describe())
			fmt.Printf("merged directory: %d states, %d transitions (%d system states explored) [%s]\n",
				res.FlatStates, res.FlatEdges, res.Explored, core.EngineCompiled)
			if cfg.fsm {
				fmt.Print(cf.FlatFSM().Format())
			}
		}
		if err != nil {
			return err
		}
		return cf.Verdict()
	}
	flag.Usage()
	return nil
}

// compile runs the Table II compile of one protocol list through the
// engine under the run context: the one compile path behind -tableii,
// -pair, -emit and -compile-out.
func compile(ctx context.Context, cfg cliConfig, names []string) (*engine.CompileResult, error) {
	pcc, err := engine.ReadSpecFile(cfg.specFile)
	if err != nil {
		return nil, err
	}
	hooks := engine.Hooks{
		OnCompiled: func(name string, stats core.CompileStats) {
			fmt.Fprintf(os.Stderr, "heterogen: %s: %s\n", name, stats)
		},
		CompileCache: cfg.cache,
	}
	if cfg.progress > 0 {
		hooks.ProgressEvery = cfg.progress
		hooks.OnProgress = cliopts.EngineProgressPrinter(os.Stderr)
	}
	return engine.Compile(ctx, engine.CompileRequest{
		Pair:      names,
		Spec:      pcc,
		Handshake: cfg.hs,
		Full:      cfg.full,
		Search:    cfg.search.SearchOptions,
	}, hooks)
}

// summarize prints the one-paragraph description of a compiled table —
// what -compile-in (and a bare -compile-out) show.
func summarize(w io.Writer, cf *core.CompiledFusion) error {
	cfg := cf.Config()
	fmt.Fprintf(w, "%s: compiled table, format v%d, digest %s\n", cf.Fusion().Name(), core.ArtifactVersion, cf.Digest())
	fmt.Fprintf(w, "  config: caches per cluster %v, %d programs, evictions %v\n",
		cfg.CachesPerCluster, len(cfg.Programs), cfg.Evictions)
	fmt.Fprintf(w, "  table: %d directory states, %d transitions (%d system states explored)\n",
		cf.DirStates(), cf.Transitions(), cf.Explored())
	fsm := cf.FlatFSM()
	fmt.Fprintf(w, "  projection: %d local states, %d edges\n", len(fsm.States), len(fsm.Edges))
	return nil
}

// withOut runs emit against stdout or the -o file.
func withOut(path string, fn func(io.Writer) error) error {
	if path == "" {
		return fn(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
