// Package cliopts centralizes the model-checker search flags shared by the
// hgcheck, hglitmus and heterogen commands: worker counts, visited-set
// storage, the symmetry and partial-order reductions, frontier spilling,
// timeouts and pprof profiling. Each command seeds a Search with its own
// defaults, registers the flags once, and resolves the parsed values
// through the same helpers — so a flag spelled -symmetry means the same
// thing everywhere.
package cliopts

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"heterogen/internal/engine"
	"heterogen/internal/mcheck"
	"heterogen/internal/profiling"
)

// Search holds the shared search-related flag values. Field values at
// Register time become the flag defaults, so commands can differ where
// their workloads warrant it (hgcheck defaults -hash on; hglitmus off).
type Search struct {
	// Workers is the -workers parallelism (0 = all cores, 1 = sequential).
	Workers int
	// Hash is -hash: 64-bit fingerprint state storage.
	Hash bool
	// Symmetry is -symmetry: cache-permutation canonicalization.
	Symmetry bool
	// POR is -por: ample-set partial order reduction (-por=0 disables).
	POR bool
	// SpillDir is -spill-dir: frontier overflow directory ("" = in-memory).
	SpillDir string
	// Timeout is -timeout: a wall-clock bound on the run (0 = none). The
	// search is cancelled cooperatively when it fires, and the command
	// prints the partial result it has.
	Timeout time.Duration
	// CPUProfile and MemProfile are -cpuprofile/-memprofile output paths.
	CPUProfile string
	MemProfile string
}

// Register installs the shared flags on fs with the current field values
// as defaults.
func (s *Search) Register(fs *flag.FlagSet) {
	fs.IntVar(&s.Workers, "workers", s.Workers, "worker parallelism (0 = all cores, 1 = sequential deterministic order)")
	fs.BoolVar(&s.Hash, "hash", s.Hash, "use state-hash compaction (lock-free 64-bit fingerprint table)")
	fs.BoolVar(&s.Symmetry, "symmetry", s.Symmetry, "canonicalize states under cache-permutation symmetry")
	fs.BoolVar(&s.POR, "por", s.POR, "ample-set partial order reduction (-por=0 forces the full interleaving space)")
	fs.StringVar(&s.SpillDir, "spill-dir", s.SpillDir, "spill frontier overflow to temp files under this directory (bounds BFS memory)")
	fs.DurationVar(&s.Timeout, "timeout", s.Timeout, "cancel the run after this long and print the partial result (e.g. 30s; 0 = no limit)")
	fs.StringVar(&s.CPUProfile, "cpuprofile", s.CPUProfile, "write a pprof CPU profile to this file")
	fs.StringVar(&s.MemProfile, "memprofile", s.MemProfile, "write a pprof heap profile to this file on exit")
}

// DefaultSearch returns the baseline defaults: POR on, everything else
// off.
func DefaultSearch() Search {
	return Search{POR: true}
}

// PORMode maps the boolean -por flag onto the checker's mode (PORAuto when
// on, POROff when disabled).
func (s *Search) PORMode() mcheck.PORMode {
	if s.POR {
		return mcheck.PORAuto
	}
	return mcheck.POROff
}

// StartProfiling begins CPU/heap profiling per the parsed flags and
// returns the stop function (a no-op when both flags are empty).
func (s *Search) StartProfiling() (func() error, error) {
	return profiling.Start(s.CPUProfile, s.MemProfile)
}

// Context builds the run context the parsed flags describe: cancelled on
// SIGINT/SIGTERM (so ^C prints the partial result instead of killing the
// process) and after -timeout when one is set. Call the returned stop
// function before exiting to restore default signal behavior — after
// cancellation a second ^C kills the process the normal way.
func (s *Search) Context() (context.Context, context.CancelFunc) {
	return SignalContext(s.Timeout)
}

// SignalContext is Context for callers without a Search: cancel on
// SIGINT/SIGTERM plus an optional wall-clock timeout.
func SignalContext(timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if timeout <= 0 {
		return ctx, stop
	}
	tctx, tcancel := context.WithTimeout(ctx, timeout)
	return tctx, func() { tcancel(); stop() }
}

// Engine maps the parsed flags onto the engine's request options — the
// one spot where flag spellings meet the structured API.
func (s *Search) Engine() engine.SearchOptions {
	return engine.SearchOptions{
		Workers:  s.Workers,
		Hash:     s.Hash,
		Symmetry: s.Symmetry,
		NoPOR:    !s.POR,
		SpillDir: s.SpillDir,
	}
}

// ProgressPrinter returns the standard -progress reporter: one stderr-style
// line per interval with the search rate, frontier depth, visited-set load
// and heap use. Commands pass it to mcheck.Options.OnProgress (and, via
// core.CompileConfig, to the extraction search behind a compile) so a
// progress line reads the same everywhere.
func ProgressPrinter(w io.Writer) func(mcheck.Progress) {
	return func(p mcheck.Progress) {
		fmt.Fprintf(w,
			"progress %8s: %d states visited (%.0f/s), frontier %d, load %.2f, spilled %d, heap %dMB\n",
			p.Elapsed.Round(time.Second), p.Visited, p.StatesPerSec,
			p.Frontier, p.LoadFactor, p.SpilledStates, p.HeapBytes>>20)
	}
}

// EngineProgressPrinter adapts ProgressPrinter to the engine's hook: the
// same line for both phases, so a compile's extraction reports read
// exactly like a check's search reports.
func EngineProgressPrinter(w io.Writer) func(engine.Progress) {
	pp := ProgressPrinter(w)
	return func(p engine.Progress) { pp(p.Progress) }
}

// Perf holds the worker-parallelism and profiling flags shared by
// commands that sweep simulations rather than search a state space
// (hgsim). It is the slim subset of Search: same spellings, same
// semantics, none of the visited-set machinery.
type Perf struct {
	// Workers is the -workers parallelism (0 = all cores, 1 = sequential).
	Workers int
	// CPUProfile and MemProfile are -cpuprofile/-memprofile output paths.
	CPUProfile string
	MemProfile string
}

// Register installs the perf flags on fs with the current field values as
// defaults.
func (p *Perf) Register(fs *flag.FlagSet) {
	fs.IntVar(&p.Workers, "workers", p.Workers, "worker parallelism (0 = all cores, 1 = sequential deterministic order)")
	fs.StringVar(&p.CPUProfile, "cpuprofile", p.CPUProfile, "write a pprof CPU profile to this file")
	fs.StringVar(&p.MemProfile, "memprofile", p.MemProfile, "write a pprof heap profile to this file on exit")
}

// StartProfiling begins CPU/heap profiling per the parsed flags and
// returns the stop function (a no-op when both flags are empty).
func (p *Perf) StartProfiling() (func() error, error) {
	return profiling.Start(p.CPUProfile, p.MemProfile)
}

// ParseBytes reads a byte size with an optional binary-unit suffix
// (K/M/G, KB/MB/GB, KiB/MiB/GiB — all powers of 1024, Murphi-style).
func ParseBytes(s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	num := strings.TrimRight(s, "KMGiBkmgib")
	unit := strings.ToUpper(s[len(num):])
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, fmt.Errorf("bad byte size %q", s)
	}
	mult := float64(1)
	switch strings.TrimSuffix(strings.TrimSuffix(unit, "IB"), "B") {
	case "":
	case "K":
		mult = 1 << 10
	case "M":
		mult = 1 << 20
	case "G":
		mult = 1 << 30
	default:
		return 0, fmt.Errorf("bad unit in %q (want K/M/G, KB/MB/GB or KiB/MiB/GiB)", s)
	}
	return int64(v * mult), nil
}
