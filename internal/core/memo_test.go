package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"heterogen/internal/mcheck"
	"heterogen/internal/protocols"
)

func fusePair(t *testing.T, a, b string) *Fusion {
	t.Helper()
	f, err := Fuse(Options{}, protocols.MustByName(a), protocols.MustByName(b))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestExtractionDeterminism pins the memoized extraction's core contract:
// Workers ∈ {1,2,4} all produce the same table state by state and record
// by record, byte-identical artifacts (the delivered pairs and the
// digest) and byte-identical FlatFSM renderings — canonical state
// renumbering is what erases the schedule from the table — and each
// distinct (state, message) pair is interpreted exactly once.
func TestExtractionDeterminism(t *testing.T) {
	f := fusePair(t, protocols.NameMSI, protocols.NameRCC)
	base, err := Compile(f, TableIICompileConfig(true, 1))
	if err != nil {
		t.Fatal(err)
	}
	wantArt := base.MarshalArtifact()
	wantFSM := base.FlatFSM().Format()
	if base.Stats().MemoHits == 0 {
		t.Error("memoized compile recorded no memo hits")
	}
	if base.Stats().Interpreted != int64(base.Transitions()) {
		t.Errorf("interpreted %d deliveries for %d distinct pairs — memoization must interpret each pair exactly once",
			base.Stats().Interpreted, base.Transitions())
	}

	// The exact visited set expands each state once, so the delivery
	// total — and, since each distinct pair is looked up and recorded
	// atomically, its split into interpreted and memoized — is
	// schedule-free: every worker count must report the baseline's counts.
	want := base.Stats()
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("w%d/memo", workers), func(t *testing.T) {
			cf, err := Compile(f, TableIICompileConfig(true, workers))
			if err != nil {
				t.Fatal(err)
			}
			requireSameTable(t, fmt.Sprintf("Workers=%d", workers), base, cf)
			if !bytes.Equal(cf.MarshalArtifact(), wantArt) {
				t.Error("artifact bytes differ from the Workers=1 baseline")
			}
			if cf.FlatFSM().Format() != wantFSM {
				t.Error("FlatFSM rendering differs from the baseline")
			}
			if st := cf.Stats(); st.Interpreted != want.Interpreted || st.MemoHits != want.MemoHits {
				t.Errorf("delivery counts depend on the schedule: %d interpreted, %d memoized vs %d, %d at Workers=1",
					st.Interpreted, st.MemoHits, want.Interpreted, want.MemoHits)
			}
		})
	}
}

// TestExtractionDeliverySplit pins the MESI&RCC-O full extraction's
// delivery counts, the ones hgbench's expected.json holds: every delivery
// the search's memo serves is handed to the compiled directory as a memo
// hit, so the split into interpreted and memoized deliveries is the one
// the table would count if it saw every delivery itself. It runs at two
// workers, so a spawned worker's hits are counted too;
// TestExtractionDeterminism holds the split equal across worker counts.
func TestExtractionDeliverySplit(t *testing.T) {
	f := fusePair(t, protocols.NameMESI, protocols.NameRCCO)
	cf, err := Compile(f, TableIICompileConfig(false, 2))
	if err != nil {
		t.Fatal(err)
	}
	st := cf.Stats()
	if st.ExtractStates != 253244 || st.Interpreted != 23476 || st.MemoHits != 439022 {
		t.Errorf("%d states, %d interpreted, %d memo hits; want 253244, 23476, 439022",
			st.ExtractStates, st.Interpreted, st.MemoHits)
	}
}

// TestCompiledDirPanicReachesCaller: a panic in the compiled directory's
// miss path unwinds to the search's caller at one worker and at two, and
// leaves the table's lock free, instead of hanging the search on that
// lock. The search runs a finished table's System(), so its early
// deliveries replay; the last state's records are dropped and its image
// corrupted, so its first delivery reinterprets and panics.
func TestCompiledDirPanicReachesCaller(t *testing.T) {
	f := fusePair(t, protocols.NameMSI, protocols.NameRCC)
	cfg := TableIICompileConfig(true, 1)
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			cf, err := Compile(f, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sys := cf.System()
			c := compilerOf(cf, sys)
			opts := mcheck.Options{Evictions: cfg.Evictions, Workers: workers, POR: mcheck.POROff}
			last := len(c.states) - 1
			c.spans[last] = nil
			c.states[last].img = []byte{0xff}
			got := make(chan any, 1)
			go func() {
				defer func() { got <- recover() }()
				mcheck.Explore(sys, opts)
			}()
			select {
			case p := <-got:
				if msg, _ := p.(string); !strings.Contains(msg, "undecodable") {
					t.Fatalf("recovered %v, want the interpreter's undecodable-image panic", p)
				}
			case <-time.After(time.Minute):
				t.Fatal("search hung after the compiled directory panicked")
			}
			if !c.mu.TryLock() {
				t.Fatal("the panic left the table's lock held")
			}
			c.mu.Unlock()
		})
	}
}

// TestExtractionSearchMatchesTable pins that a finished table reproduces
// exactly the graph that extracted it: a search of cf.System() under the
// extraction's own options (evictions as compiled, POR off, one worker)
// visits the same number of states the extraction did, runs to
// exhaustion, and — every Table II fusion being deadlock-free under its
// driver — finds no deadlock.
func TestExtractionSearchMatchesTable(t *testing.T) {
	type tcase struct {
		pair [2]string
		cfg  CompileConfig
	}
	var cases []tcase
	for _, pair := range TableIIPairs() {
		cases = append(cases, tcase{pair, TableIICompileConfig(true, 1)})
	}
	if !testing.Short() {
		cases = append(cases, tcase{[2]string{protocols.NameMESI, protocols.NameRCCO}, TableIICompileConfig(false, 1)})
	}
	for _, tc := range cases {
		f := fusePair(t, tc.pair[0], tc.pair[1])
		cf, err := Compile(f, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		res := mcheck.Explore(cf.System(), mcheck.Options{Evictions: tc.cfg.Evictions, Workers: 1, POR: mcheck.POROff})
		if res.States != cf.Explored() {
			t.Errorf("%s (evictions=%v): table search visits %d states, extraction %d",
				f.Name(), tc.cfg.Evictions, res.States, cf.Explored())
		}
		if res.Truncated || res.Cancelled {
			t.Errorf("%s: table search did not run to exhaustion", f.Name())
		}
		if res.Deadlocks != 0 {
			t.Errorf("%s: table search found %d deadlocks (%s)", f.Name(), res.Deadlocks, res.DeadlockAt)
		}
	}
}
