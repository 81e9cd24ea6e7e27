//go:build !race

package sim

// Allocation regression guard for the discrete-event hot loop. A running
// simulation should allocate O(1) amortized per operation: events live in
// one reused heap, in-flight messages in a recycled slab, per-channel
// queues recycle their backing arrays, all node state is indexed by dense
// slices, and spec-layer line storage grows once to the working-set size.
// The file is excluded under the race detector, whose instrumentation
// changes allocation counts; `make check` runs it in a separate
// uninstrumented pass (same arrangement as internal/mcheck's guard).

import (
	"testing"

	"heterogen/internal/core"
	"heterogen/internal/workload"
)

// allocsPerOpBudget is the per-memory-operation ceiling for a full
// construction + run of the tiny configuration below. Measured 3.0 per op
// (one-time construction, first-touch line/channel growth and the objects
// of each bridge); it was 4.8 while every directory delivery allocated its
// message, and the seed's map-based engine sat near 30. Slack covers
// Go-version variance without masking a return to per-message allocation.
const allocsPerOpBudget = 6.0

func TestAllocRegressionEventLoop(t *testing.T) {
	cfg := tinyConfig()
	f := tinyFusion(t, core.HSWrites)
	params, err := workload.BenchmarkByName("ligra-bfs")
	if err != nil {
		t.Fatal(err)
	}
	params.OpsPerCore = 80
	wl := workload.Generate(params, workload.Layout{BigCores: cfg.BigCores, TinyCores: cfg.TinyCores})

	// Dry run for the op count (and to fail early on sim errors).
	s, err := New(cfg, f, wl)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.MemOps == 0 {
		t.Fatal("degenerate workload")
	}

	allocs := testing.AllocsPerRun(3, func() {
		s, err := New(cfg, f, wl)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
	})
	perOp := allocs / float64(st.MemOps)
	t.Logf("event loop: %.0f allocs for %d ops = %.2f allocs/op", allocs, st.MemOps, perOp)
	if perOp > allocsPerOpBudget {
		t.Errorf("event loop allocates %.2f per op, budget %.1f — the indexed engine regressed",
			perOp, allocsPerOpBudget)
	}
}
