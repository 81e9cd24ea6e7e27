// Package cliopts registers the command-line flags shared by the hgcheck,
// hglitmus, heterogen and hgsim commands: worker counts, visited-set
// storage, the partial-order reduction, timeouts and pprof profiling. The
// search flags write straight into an engine.SearchOptions, the one
// declaration of every search knob, so a flag spelled -hash means exactly
// what the JSON "hash" field of a server request means.
package cliopts

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"heterogen/internal/engine"
	"heterogen/internal/profiling"
)

// Perf holds the pprof output flags of every command that runs work;
// Register installs them together with -workers.
type Perf struct {
	// CPUProfile and MemProfile are -cpuprofile/-memprofile output paths.
	CPUProfile string
	MemProfile string
}

// Register installs -workers, writing into *workers with its current
// value as the default, and the -cpuprofile/-memprofile flags.
func (p *Perf) Register(fs *flag.FlagSet, workers *int) {
	fs.IntVar(workers, "workers", *workers, "worker parallelism (0 = all cores, 1 = sequential deterministic order)")
	fs.StringVar(&p.CPUProfile, "cpuprofile", p.CPUProfile, "write a pprof CPU profile to this file")
	fs.StringVar(&p.MemProfile, "memprofile", p.MemProfile, "write a pprof heap profile to this file on exit")
}

// StartProfiling begins CPU/heap profiling per the parsed flags and
// returns the stop function (a no-op when both flags are empty).
func (p *Perf) StartProfiling() (func() error, error) {
	return profiling.Start(p.CPUProfile, p.MemProfile)
}

// Search is the flag set of the search commands. Field values at
// Register time become the flag defaults, so commands can differ where
// their workloads warrant it: hgcheck seeds Hash on, and the zero value
// keeps POR on everywhere.
type Search struct {
	engine.SearchOptions
	Perf
	// Timeout is -timeout: a wall-clock bound on the run (0 = none). The
	// search is cancelled cooperatively when it fires, and the command
	// prints the partial result it has.
	Timeout time.Duration
}

// RegisterRun installs the flags every search command honours: -workers,
// -timeout, -cpuprofile and -memprofile.
func (s *Search) RegisterRun(fs *flag.FlagSet) {
	s.Perf.Register(fs, &s.Workers)
	fs.DurationVar(&s.Timeout, "timeout", s.Timeout, "cancel the run after this long and print the partial result (e.g. 30s; 0 = no limit)")
}

// Register installs RegisterRun's flags plus the storage and reduction
// knobs: -hash and -por.
func (s *Search) Register(fs *flag.FlagSet) {
	s.RegisterRun(fs)
	fs.BoolVar(&s.Hash, "hash", s.Hash, "use state-hash compaction (store 64-bit state fingerprints, not exact states)")
	fs.Var(porFlag{&s.NoPOR}, "por", "ample-set partial order reduction (-por=0 forces the full interleaving space)")
}

// porFlag is -por, the inverse of SearchOptions.NoPOR: the flag keeps its
// spelling while the options' zero value keeps the reduction on.
type porFlag struct{ noPOR *bool }

func (f porFlag) IsBoolFlag() bool { return true }

func (f porFlag) String() string {
	// The flag package renders a zero porFlag to decide whether to print
	// the default; it must read as false so "(default true)" shows.
	return strconv.FormatBool(f.noPOR != nil && !*f.noPOR)
}

func (f porFlag) Set(v string) error {
	on, err := strconv.ParseBool(v)
	if err != nil {
		return err
	}
	*f.noPOR = !on
	return nil
}

// Context builds the run context the parsed flags describe: cancelled on
// SIGINT/SIGTERM (so ^C prints the partial result instead of killing the
// process) and after -timeout when one is set. Call the returned stop
// function before exiting to restore default signal behavior — after
// cancellation a second ^C kills the process the normal way.
func (s *Search) Context() (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if s.Timeout <= 0 {
		return ctx, stop
	}
	tctx, tcancel := context.WithTimeout(ctx, s.Timeout)
	return tctx, func() { tcancel(); stop() }
}

// EngineProgressPrinter returns the standard -progress reporter: one
// stderr-style line per interval with the search rate, frontier depth,
// visited-set load and heap use, the same for both engine phases, so a
// compile's extraction reports read exactly like a check's search reports.
func EngineProgressPrinter(w io.Writer) func(engine.Progress) {
	return func(p engine.Progress) {
		fmt.Fprintf(w,
			"progress %8s: %d states visited (%.0f/s), frontier %d, load %.2f, heap %dMB\n",
			p.Elapsed.Round(time.Second), p.Visited, p.StatesPerSec,
			p.Frontier, p.LoadFactor, p.HeapBytes>>20)
	}
}

// ParseBytes reads a byte size with an optional binary-unit suffix
// (K/M/G, KB/MB/GB, KiB/MiB/GiB — all powers of 1024, Murphi-style). A
// negative size, or a nonzero one that rounds down to 0 bytes, is an
// error: a budget of 0 means the default, which such a size never asked
// for.
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
	b := v * mult
	switch {
	case b < 0:
		return 0, fmt.Errorf("byte size %q must not be negative", s)
	case !(b < math.MaxInt64): // NaN too
		return 0, fmt.Errorf("byte size %q out of range", s)
	case b > 0 && b < 1:
		return 0, fmt.Errorf("byte size %q rounds to 0 bytes", s)
	}
	return int64(b), nil
}
