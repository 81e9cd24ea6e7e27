package litmus

import (
	"context"
	"sort"
	"testing"

	"heterogen/internal/core"
	"heterogen/internal/mcheck"
	"heterogen/internal/protocols"
	"heterogen/internal/spec"
)

// interpretedSystem builds the interpreted composite a fused test would
// search — the oracle the growing table is held to.
func interpretedSystem(f *core.Fusion, cachesPerCluster []int, programs [][]spec.CoreReq) *mcheck.System {
	sys, _ := core.BuildSystem(f, cachesPerCluster)
	sys.SetPrograms(programs)
	return sys
}

// runInterpreted is RunFused over the interpreted composite.
func runInterpreted(f *core.Fusion, shape Shape, assign []int, opts Options) *Result {
	return runFused(context.Background(), f, shape, assign, opts, interpretedSystem)
}

// TestCompiledLitmusAgreement pins RunFused's growing table against the
// interpreted composite on the headline pair: for MP and SB under every
// heterogeneous allocation, the two engines must produce the same states,
// outcome counts, bad-outcome sets, deadlocks and verdict flags.
func TestCompiledLitmusAgreement(t *testing.T) {
	f := fuse(t, protocols.NameMESI, protocols.NameRCCO)
	for _, name := range []string{"MP", "SB"} {
		shape, ok := ShapeByName(name)
		if !ok {
			t.Fatalf("unknown shape %s", name)
		}
		for _, assign := range Allocations(len(shape.Prog().Threads), 2, false) {
			ir := runInterpreted(f, shape, assign, Options{})
			cr := RunFused(f, shape, assign, Options{})
			if ir.Engine != core.EngineInterpreted {
				t.Errorf("%s %v: interpreted run labeled %q", name, assign, ir.Engine)
			}
			if cr.Engine != core.EngineCompiled {
				t.Errorf("%s %v: compiled run labeled %q", name, assign, cr.Engine)
			}
			if cr.States != ir.States {
				t.Errorf("%s %v: states %d vs %d", name, assign, cr.States, ir.States)
			}
			if cr.Outcomes != ir.Outcomes {
				t.Errorf("%s %v: outcomes %d vs %d", name, assign, cr.Outcomes, ir.Outcomes)
			}
			if cr.Deadlocks != ir.Deadlocks {
				t.Errorf("%s %v: deadlocks %d vs %d", name, assign, cr.Deadlocks, ir.Deadlocks)
			}
			ib := append([]string(nil), ir.BadOutcomes...)
			cb := append([]string(nil), cr.BadOutcomes...)
			sort.Strings(ib)
			sort.Strings(cb)
			if len(ib) != len(cb) {
				t.Errorf("%s %v: bad outcomes %v vs %v", name, assign, cb, ib)
			} else {
				for i := range ib {
					if ib[i] != cb[i] {
						t.Errorf("%s %v: bad outcomes %v vs %v", name, assign, cb, ib)
						break
					}
				}
			}
			if cr.Forbidden != ir.Forbidden || cr.Observed != ir.Observed {
				t.Errorf("%s %v: verdict flags forbidden=%t/%t observed=%t/%t",
					name, assign, cr.Forbidden, ir.Forbidden, cr.Observed, ir.Observed)
			}
			if cr.Pass() != ir.Pass() {
				t.Errorf("%s %v: pass disagreement compiled=%t interpreted=%t", name, assign, cr.Pass(), ir.Pass())
			}
		}
	}
}

// TestCompiledLitmusEvictions runs one shape with eviction exploration on
// to cover the growing table's eviction moves end to end.
func TestCompiledLitmusEvictions(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := fuse(t, protocols.NameRCC, protocols.NameRCC)
	shape, _ := ShapeByName("MP")
	for _, assign := range Allocations(2, 2, false) {
		ir := runInterpreted(f, shape, assign, Options{Explore: mcheck.Options{Evictions: true}})
		cr := RunFused(f, shape, assign, Options{Explore: mcheck.Options{Evictions: true}})
		if cr.States != ir.States || cr.Outcomes != ir.Outcomes || cr.Pass() != ir.Pass() {
			t.Errorf("MP %v evictions: compiled %s vs interpreted %s", assign, cr, ir)
		}
	}
}
