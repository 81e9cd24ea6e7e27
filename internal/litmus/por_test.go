package litmus

import (
	"testing"

	"heterogen/internal/mcheck"
	"heterogen/internal/protocols"
)

// porAgree fails the test unless the reduced run reports exactly the
// unreduced run's litmus verdict: pass/fail, forbidden/observed flags, the
// bad-outcome list, deadlock count and the observable outcome count. The
// reduction may only shrink the visited state count.
func porAgree(t *testing.T, label string, off, on *Result) {
	t.Helper()
	if on.Pass() != off.Pass() || on.Forbidden != off.Forbidden || on.Observed != off.Observed {
		t.Errorf("%s: verdict diverged: por pass=%t forbidden=%t observed=%t, full pass=%t forbidden=%t observed=%t",
			label, on.Pass(), on.Forbidden, on.Observed, off.Pass(), off.Forbidden, off.Observed)
	}
	if len(on.BadOutcomes) != len(off.BadOutcomes) {
		t.Errorf("%s: bad outcomes diverged: por %v, full %v", label, on.BadOutcomes, off.BadOutcomes)
	}
	if on.Deadlocks != off.Deadlocks {
		t.Errorf("%s: por found %d deadlocks, full search %d", label, on.Deadlocks, off.Deadlocks)
	}
	if on.Outcomes != off.Outcomes {
		t.Errorf("%s: por exposed %d outcomes, full search %d", label, on.Outcomes, off.Outcomes)
	}
	if on.States > off.States {
		t.Errorf("%s: por visited %d states, full search %d", label, on.States, off.States)
	}
}

// TestPORAgreesFusedLitmus: litmus verdicts are functions of terminal
// states only (observer loads land in core-local records read at
// quiescence), so the ample-set reduction must expose exactly the outcome
// set and deadlock count of the full search — on every allocation of the
// MP and SB shapes over a heterogeneous pair, sequentially and in
// parallel.
func TestPORAgreesFusedLitmus(t *testing.T) {
	pairs := [][]string{
		{protocols.NameMESI, protocols.NameRCCO},
		{protocols.NameMSI, protocols.NameTSOCC},
	}
	for _, pair := range pairs {
		pair := pair
		t.Run(pair[0]+"_"+pair[1], func(t *testing.T) {
			t.Parallel()
			f := fuse(t, pair...)
			for _, shapeName := range []string{"MP", "SB"} {
				shape, ok := ShapeByName(shapeName)
				if !ok {
					t.Fatalf("%s shape missing", shapeName)
				}
				for _, assign := range Allocations(2, 2, false) {
					off := RunFused(f, shape, assign, Options{Explore: mcheck.Options{POR: mcheck.POROff}})
					on := RunFused(f, shape, assign, Options{})
					porAgree(t, off.Shape+" "+off.Pair, off, on)
					par := RunFused(f, shape, assign, Options{ExploreWorkers: 8})
					porAgree(t, off.Shape+" "+off.Pair+" par", off, par)
					if par.States != on.States {
						t.Errorf("%s %v: reduced parallel search visited %d states, sequential %d",
							shapeName, assign, par.States, on.States)
					}
				}
			}
		})
	}
}

// TestPORAgreesIRIW covers a 4-thread shape — four caches per cluster
// give the ample-set selector more isolated-agent opportunities — on the
// headline MESI & RCC-O pair.
func TestPORAgreesIRIW(t *testing.T) {
	f := fuse(t, protocols.NameMESI, protocols.NameRCCO)
	shape, ok := ShapeByName("IRIW")
	if !ok {
		t.Fatal("IRIW shape missing")
	}
	assign := []int{0, 1, 0, 1}
	off := RunFused(f, shape, assign, Options{Explore: mcheck.Options{POR: mcheck.POROff}})
	on := RunFused(f, shape, assign, Options{})
	porAgree(t, "IRIW", off, on)
	if on.States >= off.States {
		t.Logf("IRIW: reduction did not engage (%d vs %d states)", on.States, off.States)
	}
}
