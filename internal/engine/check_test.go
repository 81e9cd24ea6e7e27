package engine

import (
	"context"
	"os"
	"strings"
	"testing"

	"heterogen/internal/mcheck"
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
