// Package engine is the programmatic verification layer behind the
// hgcheck, hglitmus and heterogen commands and the hgserve daemon: the
// same structured requests (CheckRequest, LitmusRequest, CompileRequest)
// resolve protocol names, assemble search options and run the underlying
// mcheck/litmus/core machinery under a context, so every front end shares
// one option-assembly path and one cancellation story. The CLIs parse
// flags into a request and print the result; the server decodes the same
// request from JSON; both get identical results by construction.
package engine

import (
	"fmt"
	"os"
	"time"

	"heterogen/internal/core"
	"heterogen/internal/mcheck"
	"heterogen/internal/protocols"
	"heterogen/internal/spec"
)

// SearchOptions is the one declaration of the search knobs: the JSON
// "search" object of every request and the target the cliopts flags
// parse into. mcheckOptions maps it onto the checker for checks and
// litmus runs alike. The zero value means the same thing as each
// command's baseline: POR on, exact storage, all cores.
type SearchOptions struct {
	// Workers is the search parallelism (0 = all cores, 1 = sequential
	// deterministic order).
	Workers int `json:"workers,omitempty"`
	// Hash selects 64-bit fingerprint state storage (hash compaction).
	Hash bool `json:"hash,omitempty"`
	// NoPOR disables the ample-set partial order reduction. The field is
	// inverted from the -por flag so the zero value (and an absent JSON
	// key) keeps the reduction on, matching every command's default.
	NoPOR bool `json:"no_por,omitempty"`
	// MemBudget bounds the search's state memory in bytes — the visited
	// set in either storage mode and the frontier's queued keys
	// (0 = 8 GiB).
	MemBudget int64 `json:"mem_budget,omitempty"`
	// MaxStates bounds the search's state budget (0 = per-command
	// default).
	MaxStates int `json:"max_states,omitempty"`
}

// OptionError is a request's negative option: the JSON field Field (a
// dotted path, such as "search.workers") carries Value.
type OptionError struct {
	Field string
	Value int64
}

func (e *OptionError) Error() string {
	return fmt.Sprintf("%s %d must not be negative", e.Field, e.Value)
}

// Validate rejects negative workers, mem_budget and max_states, which
// would otherwise fall through to a default the caller never asked for.
// Check, Litmus and Compile call it first; hgserve answers a failure
// with a 400.
func (s SearchOptions) Validate() error {
	for _, o := range []struct {
		field string
		value int64
	}{
		{"search.workers", int64(s.Workers)}, {"search.mem_budget", s.MemBudget}, {"search.max_states", int64(s.MaxStates)},
	} {
		if o.value < 0 {
			return &OptionError{Field: o.field, Value: o.value}
		}
	}
	return nil
}

// PORMode maps NoPOR onto the checker's mode.
func (s SearchOptions) PORMode() mcheck.PORMode {
	if s.NoPOR {
		return mcheck.POROff
	}
	return mcheck.PORAuto
}

// Progress is a hook report tagged with the phase that produced it:
// "search" for a check or litmus search, "extract" for the extraction
// search behind a compile request.
type Progress struct {
	Phase string
	mcheck.Progress
}

// Hooks carries the per-run environment a front end supplies alongside a
// request: progress reporting, the shared memory accountant and the
// compile cache. Hooks are never part of a request's identity — two runs
// with different hooks produce the same result.
type Hooks struct {
	// ProgressEvery/OnProgress mirror mcheck.Options: periodic reports
	// from the search (and from the extraction search behind a compile).
	ProgressEvery time.Duration
	OnProgress    func(Progress)
	// OnCompiled fires once when a compiled table becomes available
	// (fresh extraction, artifact load or cache hit) — the engine-level
	// home of the "name: stats" line the CLIs print to stderr.
	OnCompiled func(name string, stats core.CompileStats)
	// MemPool, when non-nil, makes every visited set of the run acquire
	// from this shared accountant (mcheck.Options.MemPool) — how a server
	// hosting concurrent searches shares one memory budget.
	MemPool *mcheck.MemPool
	// CompileCache is the content-addressed compiled-table artifact cache
	// directory compile requests read and write ("" = compile in-process
	// every time). It is the front end's choice, never the request's.
	CompileCache string
}

// searchProgress adapts OnProgress to an mcheck callback for the given
// phase (nil when no hook is installed).
func (h Hooks) searchProgress(phase string) func(mcheck.Progress) {
	if h.OnProgress == nil {
		return nil
	}
	return func(p mcheck.Progress) { h.OnProgress(Progress{Phase: phase, Progress: p}) }
}

// compiled fires the OnCompiled hook if installed.
func (h Hooks) compiled(name string, stats core.CompileStats) {
	if h.OnCompiled != nil {
		h.OnCompiled(name, stats)
	}
}

// mcheckOptions assembles the checker options shared by every search the
// engine starts: the request's search knobs plus the run's hooks.
func (s SearchOptions) mcheckOptions(h Hooks, evictions bool) mcheck.Options {
	return mcheck.Options{
		Evictions:      evictions,
		MaxStates:      s.MaxStates,
		HashCompaction: s.Hash,
		MemBudget:      s.MemBudget,
		Workers:        s.Workers,
		POR:            s.PORMode(),
		ProgressEvery:  h.ProgressEvery,
		OnProgress:     h.searchProgress("search"),
		MemPool:        h.MemPool,
	}
}

// resolveProtocol resolves one protocol name: a built-in by name, or "-"
// for the request's inline PCC source.
func resolveProtocol(name, pccSrc string) (*spec.Protocol, error) {
	if name == "-" {
		if pccSrc == "" {
			return nil, fmt.Errorf("protocol '-' requires a PCC spec (the request's spec field; -spec FILE on the command line)")
		}
		return spec.ParsePCC(pccSrc)
	}
	return protocols.ByName(name)
}

// resolvePair resolves a request's two-protocol pair.
func resolvePair(pair []string, pccSrc string) (*spec.Protocol, *spec.Protocol, error) {
	if len(pair) != 2 {
		return nil, nil, fmt.Errorf("pair needs exactly two protocols, got %d", len(pair))
	}
	a, err := resolveProtocol(pair[0], pccSrc)
	if err != nil {
		return nil, nil, err
	}
	b, err := resolveProtocol(pair[1], pccSrc)
	if err != nil {
		return nil, nil, err
	}
	return a, b, nil
}

// ParseHandshake maps the handshake-mode spelling shared by the heterogen
// CLI and the compile request onto core's enum.
func ParseHandshake(hs string) (core.HandshakeMode, error) {
	switch hs {
	case "", "none":
		return core.HSNone, nil
	case "writes":
		return core.HSWrites, nil
	case "all":
		return core.HSAll, nil
	}
	return 0, fmt.Errorf("unknown handshake mode %q (want none, writes or all)", hs)
}

// ReadSpecFile loads a PCC spec file into the inline-source form requests
// carry, so CLI -spec flags and server requests share one field.
func ReadSpecFile(path string) (string, error) {
	if path == "" {
		return "", nil
	}
	src, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	return string(src), nil
}
