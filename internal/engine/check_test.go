package engine

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"heterogen/internal/core"
	"heterogen/internal/mcheck"
	"heterogen/internal/protocols"
	"heterogen/internal/spec"
)

// TestCheckRefusesBadCounts pins the request bounds of Check: a negative
// cache or address count, an address count reaching
// spec.MaxDecodeAddr, and a cache count whose node ids outgrow a
// spec.NodeSet are request errors, reported before any system is built;
// a zero count still means the default of 2.
func TestCheckRefusesBadCounts(t *testing.T) {
	for _, tc := range []struct {
		name string
		req  CheckRequest
		want string // substring of the error; "" = accepted
	}{
		{"protocol negative caches", CheckRequest{Protocol: "MSI", Caches: -1}, "must not be negative"},
		{"pair negative caches", CheckRequest{Pair: []string{"MSI", "RCC"}, Caches: -1}, "must not be negative"},
		{"negative addrs", CheckRequest{Protocol: "MSI", Addrs: -1}, "must not be negative"},
		{"pair negative addrs", CheckRequest{Pair: []string{"MSI", "RCC"}, Addrs: -1}, "must not be negative"},
		{"addrs at the decode bound", CheckRequest{Protocol: "MSI", Addrs: spec.MaxDecodeAddr}, "below"},
		{"protocol caches past NodeSet", CheckRequest{Protocol: "MSI", Caches: spec.MaxNodes}, "at most"},
		{"pair caches past NodeSet", CheckRequest{Pair: []string{"MSI", "RCC"}, Caches: spec.MaxNodes / 2}, "node ids"},
		{"zero counts default to 2", CheckRequest{Protocol: "MSI", Search: SearchOptions{Workers: 1, MaxStates: 50}}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Check(context.Background(), tc.req, Hooks{})
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("refused: %v", err)
			case tc.want == "" && res.States == 0:
				t.Fatal("default check searched no states")
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("got %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestNoPutAckDeadlocksUnderBothDrivers checks MSI without its PutAck,
// three caches with evictions, under both CheckDriver programs: the
// distinct-value driver every check runs and the same-value one. The bug
// does not depend on the values stored, so both searches must deadlock.
func TestNoPutAckDeadlocksUnderBothDrivers(t *testing.T) {
	src, err := os.ReadFile("../core/testdata/msi_no_putack.pcc")
	if err != nil {
		t.Fatal(err)
	}
	p, err := spec.ParsePCC(string(src))
	if err != nil {
		t.Fatal(err)
	}
	const caches = 3
	for _, sameValue := range []bool{false, true} {
		sys := mcheck.NewHomogeneous(p, caches)
		sys.SetPrograms(CheckDriver(caches, 1, sameValue))
		res := mcheck.Explore(sys, mcheck.Options{Evictions: true, Workers: 1})
		t.Logf("sameValue=%v: %s", sameValue, res)
		if res.Deadlocks == 0 {
			t.Errorf("sameValue=%v: no deadlock: %s", sameValue, res)
		}
	}
}

// TestCheckTableSeedsPair pins a pair check seeded from an artifact: any
// table of the same fusion over the same caches seeds the check driver's
// search, whatever driver it was compiled with — here the Table II one —
// and the seeded search reports exactly the interpreted check's counts
// under the compiled-table label. A table of another pair, of other
// fusion options or over other caches is refused, naming which.
func TestCheckTableSeedsPair(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, opts core.Options, a, b string) string {
		f, err := core.Fuse(opts, protocols.MustByName(a), protocols.MustByName(b))
		if err != nil {
			t.Fatal(err)
		}
		cf, err := core.Compile(f, core.TableIICompileConfig(true, 1))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := cf.WriteArtifact(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	table := write("msi-rcc.hgcf", core.Options{}, protocols.NameMSI, protocols.NameRCC)
	search := SearchOptions{Workers: 1}
	want, err := Check(context.Background(), CheckRequest{Pair: []string{"MSI", "RCC"}, Caches: 1, Addrs: 1, Search: search}, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if want.States != 2028 || want.Transitions != 4139 || len(want.Outcomes) != 3 {
		t.Fatalf("interpreted check: %d states, %d transitions, %d outcomes; want 2028, 4139, 3", want.States, want.Transitions, len(want.Outcomes))
	}
	got, err := Check(context.Background(), CheckRequest{Pair: []string{"MSI", "RCC"}, Caches: 1, Addrs: 1, Table: table, Search: search}, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if got.States != want.States || got.Transitions != want.Transitions || got.Deadlocks != want.Deadlocks ||
		got.PORReduced != want.PORReduced || len(got.Outcomes) != len(want.Outcomes) {
		t.Errorf("seeded check %d states, %d transitions, %d deadlocks, %d ample, %d outcomes; interpreted %d, %d, %d, %d, %d",
			got.States, got.Transitions, got.Deadlocks, got.PORReduced, len(got.Outcomes),
			want.States, want.Transitions, want.Deadlocks, want.PORReduced, len(want.Outcomes))
	}
	if got.Engine != core.EngineCompiled || got.Compile == nil || got.Compile.Source != core.SourceArtifact {
		t.Errorf("seeded check labeled %q with compile stats %+v", got.Engine, got.Compile)
	}

	for _, tc := range []struct {
		name, what string
		req        CheckRequest
	}{
		{"mismatched pair", "protocols", CheckRequest{Pair: []string{"MSI", "MSI"}, Caches: 1, Addrs: 1, Table: table}},
		{"mismatched cache count", "caches per cluster", CheckRequest{Pair: []string{"MSI", "RCC"}, Caches: 2, Addrs: 1, Table: table}},
		{"mismatched fusion options", "fusion options", CheckRequest{Pair: []string{"MSI", "RCC"}, Caches: 1, Addrs: 1,
			Table: write("msi-rcc-hs.hgcf", core.Options{Handshake: core.HSAll}, protocols.NameMSI, protocols.NameRCC)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.req.Search = search
			_, err := Check(context.Background(), tc.req, Hooks{})
			var mis *core.SeedMismatchError
			if !errors.As(err, &mis) || mis.What != tc.what || !errors.Is(err, core.ErrArtifactMismatch) {
				t.Fatalf("got %v, want a seed mismatch in its %s", err, tc.what)
			}
		})
	}
}
