// Deadlock checking (§VII-C) as a structured request: the engine behind
// `hgcheck` and the server's "check" jobs.

package engine

import (
	"context"
	"fmt"

	"heterogen/internal/core"
	"heterogen/internal/mcheck"
	"heterogen/internal/spec"
)

// DefaultCheckMaxStates is the check-request state budget when the
// request leaves MaxStates zero — hgcheck's longstanding 8M default.
const DefaultCheckMaxStates = 8 << 20

// CheckRequest describes one deadlock-freedom check. Exactly one of
// Protocol, Pair or Table (alone) selects the system:
//
//   - Protocol: a homogeneous system of Caches caches.
//   - Pair: a fused heterogeneous system, Caches caches per cluster,
//     searched as the interpreted composite (core.BuildSystem); with
//     Table, a serialized artifact of the same fusion over the same caches
//     seeds the search (core.CompiledFusion.Seeds).
//   - Table alone: a standalone artifact check under the table's own
//     baked configuration.
type CheckRequest struct {
	// Protocol checks a homogeneous protocol by name.
	Protocol string `json:"protocol,omitempty"`
	// Pair checks the fusion of two protocols ("-" resolves Spec).
	Pair []string `json:"pair,omitempty"`
	// Spec is inline PCC source for a "-" entry in Pair.
	Spec string `json:"spec,omitempty"`
	// Caches is the cache count (per cluster for Pair); 0 = 2. Negative
	// counts, and counts whose node ids outgrow a spec.NodeSet, are
	// request errors.
	Caches int `json:"caches,omitempty"`
	// Addrs is the address count of the driver workload; 0 = 2. It must
	// lie in [0, spec.MaxDecodeAddr).
	Addrs int `json:"addrs,omitempty"`
	// Table is a compiled-table .hgcf artifact path: alone it supplies
	// the whole configuration, with Pair it seeds the request's search,
	// and must then hold the same fusion over the same caches.
	Table string `json:"table,omitempty"`
	// Search carries the shared search knobs.
	Search SearchOptions `json:"search,omitempty"`
}

// CheckResult is the outcome of a check: the search result under the
// resolved system's name, plus the compile stats when a serialized
// artifact was loaded.
type CheckResult struct {
	// Name identifies the checked system (protocol or fusion name).
	Name string `json:"name"`
	mcheck.Result
	// Compile reports the loaded artifact's provenance for Table checks.
	Compile *core.CompileStats `json:"compile,omitempty"`
}

// Verdict maps the result onto the error the CLIs exit nonzero on: a
// found deadlock, a truncated search, or a cancelled one. A nil verdict
// means the exhaustive search proved deadlock freedom.
func (r *CheckResult) Verdict() error {
	switch {
	case r.Deadlocks > 0:
		return fmt.Errorf("deadlock found")
	case r.Cancelled:
		return fmt.Errorf("cancelled after expanding %d states (partial result)", r.States)
	case r.BudgetFull:
		return fmt.Errorf("storage memory budget exhausted after expanding %d states (raise the memory budget)", r.States)
	case r.Truncated:
		return fmt.Errorf("state budget MaxStates=%d exhausted after expanding %d states (raise the state budget)",
			r.MaxStates, r.States)
	}
	return nil
}

// CheckDriver builds the deadlock-stress workload shared by hgcheck and
// the server: every core stores and loads every address; the checker
// injects evictions at any time. Stores carry per-core distinct values so
// outcomes identify the writer. With sameValue every core stores the
// value 1 instead, a program with a single outcome; no check passes it,
// and it stays only for the benchmark harness's existing calls and the
// tests that compare the two drivers.
func CheckDriver(cores, addrs int, sameValue bool) [][]spec.CoreReq {
	progs := make([][]spec.CoreReq, cores)
	for c := 0; c < cores; c++ {
		v := c + 1
		if sameValue {
			v = 1
		}
		for a := 0; a < addrs; a++ {
			progs[c] = append(progs[c],
				spec.CoreReq{Op: spec.OpStore, Addr: spec.Addr(a), Value: v},
				spec.CoreReq{Op: spec.OpLoad, Addr: spec.Addr((a + 1) % addrs)})
		}
		progs[c] = append(progs[c], spec.CoreReq{Op: spec.OpRelease}, spec.CoreReq{Op: spec.OpAcquire})
	}
	return progs
}

// Check runs one deadlock check to completion (or cancellation). The
// returned error covers request and setup problems only; search outcomes
// — deadlocks, truncation, cancellation — land in the result, with
// Verdict mapping them back to the CLI error convention.
func Check(ctx context.Context, req CheckRequest, hooks Hooks) (*CheckResult, error) {
	if err := req.Search.Validate(); err != nil {
		return nil, err
	}
	switch {
	case req.Caches < 0 || req.Addrs < 0:
		return nil, fmt.Errorf("caches (%d) and addrs (%d) must not be negative", req.Caches, req.Addrs)
	case req.Addrs >= spec.MaxDecodeAddr:
		return nil, fmt.Errorf("addrs %d: the driver's addresses must lie below %d", req.Addrs, spec.MaxDecodeAddr)
	}
	caches := req.Caches
	if caches == 0 {
		caches = 2
	}
	addrs := req.Addrs
	if addrs == 0 {
		addrs = 2
	}
	if req.Search.MaxStates == 0 {
		req.Search.MaxStates = DefaultCheckMaxStates
	}

	var sys *mcheck.System
	var cf *core.CompiledFusion // the loaded artifact of a Table check
	var name string
	var err error
	evictions := true
	switch {
	case req.Table != "" && len(req.Pair) == 0 && req.Protocol == "":
		// Standalone artifact check: the table's own baked configuration
		// (programs, caches, evictions) defines the search.
		if cf, err = core.LoadArtifactFile(req.Table); err != nil {
			return nil, err
		}
		sys, name = cf.System(), cf.Fusion().Name()
		evictions = cf.Config().Evictions
	case req.Protocol != "":
		if req.Table != "" {
			return nil, fmt.Errorf("table checks apply to fused pairs, not homogeneous protocols")
		}
		// The caches and the directory take node ids 0..caches.
		if caches >= spec.MaxNodes {
			return nil, fmt.Errorf("caches %d: a system numbers at most %d nodes, the directory included", caches, spec.MaxNodes)
		}
		p, err := resolveProtocol(req.Protocol, req.Spec)
		if err != nil {
			return nil, err
		}
		sys = mcheck.NewHomogeneous(p, caches)
		sys.SetPrograms(CheckDriver(caches, addrs, false))
		name = req.Protocol
	case len(req.Pair) > 0:
		a, b, err := resolvePair(req.Pair, req.Spec)
		if err != nil {
			return nil, err
		}
		f, err := core.Fuse(core.Options{}, a, b)
		if err != nil {
			return nil, err
		}
		if err := f.CheckCaches([]int{caches, caches}); err != nil {
			return nil, err
		}
		name = f.Name()
		if req.Table == "" {
			sys, _ = core.BuildSystem(f, []int{caches, caches})
		} else {
			// A directory outcome does not depend on the cores' programs:
			// any table of this fusion over these caches seeds the
			// driver's search, whatever driver it was compiled with.
			if cf, err = core.LoadArtifactFile(req.Table); err != nil {
				return nil, err
			}
			if err := cf.Seeds(f, []int{caches, caches}); err != nil {
				return nil, fmt.Errorf("%s: %w", req.Table, err)
			}
			sys = cf.System()
		}
		sys.SetPrograms(CheckDriver(2*caches, addrs, false))
	default:
		return nil, fmt.Errorf("check request selects nothing: set protocol, pair or table")
	}

	var compileStats *core.CompileStats
	if cf != nil {
		stats := cf.Stats()
		hooks.compiled(name, stats)
		compileStats = &stats
	}
	res := mcheck.ExploreCtx(ctx, sys, req.Search.mcheckOptions(hooks, evictions))
	return &CheckResult{Name: name, Result: *res, Compile: compileStats}, nil
}
