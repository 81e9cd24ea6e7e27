package core

import (
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"heterogen/internal/mcheck"
	"heterogen/internal/protocols"
	"heterogen/internal/spec"
)

func TestTableIIPairs(t *testing.T) {
	pairs := TableIIPairs()
	if len(pairs) != 8 {
		t.Fatalf("got %d pairs, want the 8 of Table II", len(pairs))
	}
	for _, pair := range pairs {
		if _, err := protocols.ByName(pair[0]); err != nil {
			t.Errorf("unknown protocol %s", pair[0])
		}
		if _, err := protocols.ByName(pair[1]); err != nil {
			t.Errorf("unknown protocol %s", pair[1])
		}
	}
}

func TestEnumerateFSMQuickAllPairs(t *testing.T) {
	var entries []*TableIIEntry
	for _, pair := range TableIIPairs() {
		f, err := Fuse(Options{}, protocols.MustByName(pair[0]), protocols.MustByName(pair[1]))
		if err != nil {
			t.Fatal(err)
		}
		e, _, err := EnumerateCompiled(f, true, 1)
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		if e.States < 3 || e.Transitions < e.States/2 {
			t.Errorf("%s: implausibly small FSM %d/%d", e.Pair, e.States, e.Transitions)
		}
		entries = append(entries, e)
	}
	// Trend property from the paper's Table II: the SC&SC fusion is the
	// largest, RCC&RCC the smallest.
	if entries[0].States <= entries[len(entries)-1].States {
		t.Errorf("MSI&MSI (%d states) should exceed RCC&RCC (%d states)",
			entries[0].States, entries[len(entries)-1].States)
	}
	// Rows 2-4 (MESI fused with the ownership/self-invalidation family)
	// match each other, mirroring the identical 17/88 rows of the paper.
	if entries[1].States != entries[2].States {
		t.Errorf("MESI&TSO-CC (%d) and MESI&PLO-CC (%d) should enumerate identically",
			entries[1].States, entries[2].States)
	}
	out := FormatTableII(entries)
	if !strings.Contains(out, "MSI&MSI") || !strings.Contains(out, "states") {
		t.Errorf("Table II format missing content:\n%s", out)
	}
}

func TestEnumerateFSMFullSmallestPair(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f, err := Fuse(Options{}, protocols.MustByName(protocols.NameRCC), protocols.MustByName(protocols.NameRCC))
	if err != nil {
		t.Fatal(err)
	}
	quick, _, err := EnumerateCompiled(f, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := EnumerateCompiled(f, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if full.States < quick.States {
		t.Errorf("full enumeration (%d states) smaller than quick (%d)", full.States, quick.States)
	}
}

var updateTableII = flag.Bool("update", false, "rewrite testdata/tableii.golden and testdata/hgcf.sha256 from the compiled tables")

// tableIIGoldenFull names the pairs whose full (eviction-exploring) rows
// testdata/tableii.golden pins besides every quick row: the four whose
// full enumeration explores fewer than 40k system states.
var tableIIGoldenFull = map[string]bool{
	"MESI&RCC": true, "MESI&GPU": true, "RCC-O&RCC": true, "RCC&RCC": true,
}

// tableIIGolden renders every golden row, one per line, each with the
// sha256 of its flat-FSM text, extracted on the given number of workers.
func tableIIGolden(t *testing.T, workers int) string {
	t.Helper()
	var b strings.Builder
	for _, quick := range []bool{true, false} {
		for _, pair := range TableIIPairs() {
			f, err := Fuse(Options{}, protocols.MustByName(pair[0]), protocols.MustByName(pair[1]))
			if err != nil {
				t.Fatal(err)
			}
			if !quick && !tableIIGoldenFull[f.Name()] {
				continue
			}
			e, cf, err := EnumerateCompiled(f, quick, workers)
			if err != nil {
				t.Fatalf("%s: %v", f.Name(), err)
			}
			mode := "full"
			if quick {
				mode = "quick"
			}
			fmt.Fprintf(&b, "%s %s states=%d transitions=%d explored=%d fsm=%x\n", mode, e.Pair,
				e.States, e.Transitions, e.Explored, sha256.Sum256([]byte(cf.FlatFSM().Format())))
		}
	}
	return b.String()
}

// TestTableIIGolden pins Table II: every pair's quick row and the full
// rows of tableIIGoldenFull, each with the digest of its rendered flat
// FSM, extracted on one worker and on two. Regenerate with -update only
// for an intended behaviour change:
//
//	go test ./internal/core -run TestTableIIGolden -update
func TestTableIIGolden(t *testing.T) {
	path := filepath.Join("testdata", "tableii.golden")
	if *updateTableII {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(tableIIGolden(t, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./internal/core -run TestTableIIGolden -update)", err)
	}
	for _, workers := range []int{1, 2} {
		if got := tableIIGolden(t, workers); got != string(want) {
			t.Errorf("Table II on %d workers drifted from %s:\n--- got ---\n%s--- want ---\n%s", workers, path, got, want)
		}
	}
}

// TestExtractionVerdict pins that extraction keeps its verdict. The
// fixture is MSI with the directory's PutAck to the last sharer's PutS
// cut: fused with RCC it deadlocks once evictions are explored (the full
// Table II config), yet still compiles — EnumerateCompiled returns the
// row with an ErrExtractionDeadlock that agrees with the interpreted
// oracle — while the quick config, which never evicts, stays clean. A
// table reloaded from its artifact, or from a warm compile cache, reports
// the same verdict as the fresh compile.
func TestExtractionVerdict(t *testing.T) {
	text, err := os.ReadFile(filepath.Join("testdata", "msi_no_putack.pcc"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := spec.ParsePCC(string(text))
	if err != nil {
		t.Fatal(err)
	}
	f, err := Fuse(Options{}, p, protocols.MustByName(protocols.NameRCC))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := EnumerateCompiled(f, true, 1); err != nil {
		t.Errorf("quick config: %v", err)
	}
	e, cf, err := EnumerateCompiled(f, false, 1)
	if !errors.Is(err, ErrExtractionDeadlock) || e == nil || cf == nil {
		t.Fatalf("full config: got row %v, error %v; want the row and ErrExtractionDeadlock", e, err)
	}
	st := cf.Stats()
	isys, _ := BuildSystem(f, []int{1, 1})
	isys.SetPrograms(tableIIDriver())
	ires := mcheck.Explore(isys, mcheck.Options{Evictions: true, Workers: 1, POR: mcheck.POROff})
	if st.Deadlocks != 39 || st.Deadlocks != ires.Deadlocks || st.DeadlockAt != ires.DeadlockAt {
		t.Errorf("extraction verdict %d deadlocks at %q; interpreted oracle %d at %q; want 39",
			st.Deadlocks, st.DeadlockAt, ires.Deadlocks, ires.DeadlockAt)
	}
	want := cf.Verdict().Error()
	lcf, err := LoadArtifact(cf.MarshalArtifact())
	if err != nil {
		t.Fatal(err)
	}
	if err := lcf.Verdict(); err == nil || err.Error() != want {
		t.Errorf("loaded table reports verdict %v, fresh compile %q", err, want)
	}
	dir := t.TempDir()
	for _, wantCached := range []bool{false, true} {
		ccf, cached, err := CompileOrLoad(f, TableIICompileConfig(false, 1), dir)
		if err != nil {
			t.Fatal(err)
		}
		if cached != wantCached {
			t.Errorf("compile cache hit %t, want %t", cached, wantCached)
		}
		if err := ccf.Verdict(); !errors.Is(err, ErrExtractionDeadlock) || err.Error() != want {
			t.Errorf("compile cache (hit %t) reports verdict %v, fresh compile %q", cached, err, want)
		}
	}
}
