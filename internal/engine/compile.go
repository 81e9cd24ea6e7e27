// Compilation as a structured request: the engine behind every heterogen
// compile (-tableii, -pair, -emit, -compile-out) and the server's
// "compile" jobs (which keep only the rendered result and the table's
// artifact bytes).

package engine

import (
	"context"
	"fmt"
	"io"

	"heterogen/internal/core"
	"heterogen/internal/export"
	"heterogen/internal/spec"
)

// CompileRequest describes one fusion compile: which protocols to fuse
// and under which configuration to extract the flat table. The
// configuration is the Table II one (1 cache per cluster, the shared
// driver), the same artifact `heterogen -emit` produces.
type CompileRequest struct {
	// Pair names the protocols to fuse ("-" resolves Spec). Two or more.
	Pair []string `json:"pair"`
	// Spec is inline PCC source for a "-" entry in Pair.
	Spec string `json:"spec,omitempty"`
	// Handshake is the fusion handshake variant: "", "none", "writes"
	// or "all".
	Handshake string `json:"handshake,omitempty"`
	// Full extracts with evictions explored (slower); the default is
	// the quick eviction-free Table II configuration.
	Full bool `json:"full,omitempty"`
	// Search supplies Workers, MaxStates (the extraction's state budget)
	// and MemBudget (its visited-set memory). Extraction always runs with
	// POR off, so NoPOR is accepted and changes nothing; it fixes exact
	// storage, so a request setting hash fails.
	Search SearchOptions `json:"search,omitempty"`
}

// CompileResult summarizes a compiled table. The compiled fusion itself
// rides along unexported (it holds interned state tables, not JSON
// material) — Compiled() hands it out for artifact emission.
type CompileResult struct {
	// Name is the fusion name.
	Name string `json:"name"`
	// Digest is the content digest keying the artifact cache.
	Digest string `json:"digest"`
	// Stats reports the extraction (Source distinguishes a fresh
	// compile from a cache hit).
	Stats core.CompileStats `json:"stats"`
	// DirStates/Transitions/Explored count the merged directory table.
	DirStates   int `json:"dir_states"`
	Transitions int `json:"transitions"`
	Explored    int `json:"explored"`
	// FlatStates/FlatEdges count the projected flat FSM.
	FlatStates int `json:"flat_states"`
	FlatEdges  int `json:"flat_edges"`

	cf *core.CompiledFusion
}

// Compiled returns the compiled fusion behind the summary.
func (r *CompileResult) Compiled() *core.CompiledFusion { return r.cf }

// Compile runs one compile request. Cancellation surfaces as
// core.ErrCompileCancelled — a compile has no meaningful partial result
// (a partial table covers only the pairs the cancelled search reached),
// so unlike Check and Litmus the cancelled case is an error here.
func Compile(ctx context.Context, req CompileRequest, hooks Hooks) (*CompileResult, error) {
	if len(req.Pair) < 2 {
		return nil, fmt.Errorf("compile request needs at least two protocols, got %d", len(req.Pair))
	}
	s := req.Search
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Hash {
		return nil, fmt.Errorf("compile request sets search.hash, which extraction does not honour (it takes workers, max_states, mem_budget and no_por)")
	}
	mode, err := ParseHandshake(req.Handshake)
	if err != nil {
		return nil, err
	}
	var ps []*spec.Protocol
	for _, name := range req.Pair {
		p, err := resolveProtocol(name, req.Spec)
		if err != nil {
			return nil, err
		}
		ps = append(ps, p)
	}
	f, err := core.Fuse(core.Options{Handshake: mode}, ps...)
	if err != nil {
		return nil, err
	}
	ccfg := core.TableIICompileConfig(!req.Full, s.Workers)
	ccfg.MaxStates = s.MaxStates
	ccfg.MemBudget = s.MemBudget
	ccfg.ProgressEvery = hooks.ProgressEvery
	ccfg.OnProgress = hooks.searchProgress("extract")
	ccfg.MemPool = hooks.MemPool
	cf, _, err := core.CompileOrLoadCtx(ctx, f, ccfg, hooks.CompileCache)
	if err != nil {
		return nil, err
	}
	stats := cf.Stats()
	hooks.compiled(f.Name(), stats)
	fsm := cf.FlatFSM()
	return &CompileResult{
		Name:        f.Name(),
		Digest:      cf.Digest(),
		Stats:       stats,
		DirStates:   cf.DirStates(),
		Transitions: cf.Transitions(),
		Explored:    cf.Explored(),
		FlatStates:  len(fsm.States),
		FlatEdges:   len(fsm.Edges),
		cf:          cf,
	}, nil
}

// Emit writes one artifact of a compiled fusion: the versioned binary
// form ("hgcf") or a textual projection ("table", "pcc", "murphi",
// "dot") — the engine-level home of the heterogen -emit switch, shared
// with the server's artifact downloads.
func Emit(cf *core.CompiledFusion, kind string, w io.Writer) error {
	switch kind {
	case "hgcf":
		_, err := w.Write(cf.Artifact())
		return err
	case "table":
		_, err := io.WriteString(w, cf.FlatFSM().Format())
		return err
	case "pcc":
		p, err := cf.Protocol()
		if err != nil {
			return err
		}
		_, err = io.WriteString(w, spec.ExportPCC(p))
		return err
	case "murphi":
		p, err := cf.Protocol()
		if err != nil {
			return err
		}
		_, err = io.WriteString(w, export.Murphi(p, export.DefaultMurphiConfig()))
		return err
	case "dot":
		_, err := io.WriteString(w, export.DOTFlat(cf.FlatFSM()))
		return err
	}
	return fmt.Errorf("unknown artifact kind %q (want hgcf, table, pcc, murphi or dot)", kind)
}
