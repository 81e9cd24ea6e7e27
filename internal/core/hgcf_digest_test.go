package core

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"heterogen/internal/protocols"
)

// hgcfDigestPath pins the sha256 of MarshalArtifact() for every Table II
// pair, quick and full, one line each: "<hex>  <quick|full> <A>,<B>". The
// lines read the same as `heterogen -pair A,B [-full] -compile-out f.hgcf`
// followed by sha256sum, which is how CI checks the full rows.
var hgcfDigestPath = filepath.Join("testdata", "hgcf.sha256")

// hgcfDigest compiles one Table II pair and hashes its artifact bytes.
func hgcfDigest(t *testing.T, pair [2]string, quick bool) string {
	t.Helper()
	f, err := Fuse(Options{}, protocols.MustByName(pair[0]), protocols.MustByName(pair[1]))
	if err != nil {
		t.Fatal(err)
	}
	cf, err := Compile(f, TableIICompileConfig(quick, 1))
	if err != nil {
		t.Fatalf("%s: %v", f.Name(), err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(cf.MarshalArtifact()))
}

func hgcfMode(quick bool) string {
	if quick {
		return "quick"
	}
	return "full"
}

// TestArtifactDigests pins the artifact bytes of the 8 quick Table II
// tables: a change to how states or messages are numbered in memory must
// not move a byte of the .hgcf format. -update rewrites all 16 lines
// (the full rows take seconds each; CI checks them through the CLI):
//
//	go test ./internal/core -run TestArtifactDigests -update
func TestArtifactDigests(t *testing.T) {
	if *updateTableII {
		var b strings.Builder
		for _, quick := range []bool{true, false} {
			for _, pair := range TableIIPairs() {
				fmt.Fprintf(&b, "%s  %s %s,%s\n", hgcfDigest(t, pair, quick), hgcfMode(quick), pair[0], pair[1])
			}
		}
		if err := os.WriteFile(hgcfDigestPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	fh, err := os.Open(hgcfDigestPath)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./internal/core -run TestArtifactDigests -update)", err)
	}
	defer fh.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		var sum, mode, pair string
		if _, err := fmt.Sscanf(sc.Text(), "%s %s %s", &sum, &mode, &pair); err != nil {
			t.Fatalf("%s: bad line %q: %v", hgcfDigestPath, sc.Text(), err)
		}
		want[mode+" "+pair] = sum
	}
	if len(want) != 2*len(TableIIPairs()) {
		t.Fatalf("%s holds %d rows, want %d", hgcfDigestPath, len(want), 2*len(TableIIPairs()))
	}
	for _, pair := range TableIIPairs() {
		key := "quick " + pair[0] + "," + pair[1]
		if got := hgcfDigest(t, pair, true); got != want[key] {
			t.Errorf("%s: artifact sha256 %s, pinned %s", key, got, want[key])
		}
	}
}
