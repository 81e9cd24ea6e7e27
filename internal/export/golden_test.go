package export

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"heterogen/internal/core"
	"heterogen/internal/protocols"
	"heterogen/internal/spec"
)

// The golden files pin the exact text of the compiled-table artifacts the
// heterogen CLI prints for -emit murphi / -emit dot / -emit pcc on the
// MSI&RCC case study (quick enumeration, the Table II configuration).
// Regenerate after an intentional format change with
//
//	go test ./internal/export -run TestEmitGolden -update
var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

func compiledMSIRCC(t *testing.T) *core.CompiledFusion {
	t.Helper()
	f, err := core.Fuse(core.Options{},
		protocols.MustByName(protocols.NameMSI), protocols.MustByName(protocols.NameRCC))
	if err != nil {
		t.Fatal(err)
	}
	_, cf, err := core.EnumerateCompiled(f, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	return cf
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden file; diff the output or rerun with -update if intentional.\n--- got ---\n%s", name, got)
	}
}

func TestEmitGoldenMurphi(t *testing.T) {
	cf := compiledMSIRCC(t)
	p, err := cf.Protocol()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "msi_rcc_compiled.m", Murphi(p, DefaultMurphiConfig()))
}

func TestEmitGoldenDOT(t *testing.T) {
	cf := compiledMSIRCC(t)
	checkGolden(t, "msi_rcc_compiled.dot", DOTFlat(cf.FlatFSM()))
}

func TestEmitGoldenPCC(t *testing.T) {
	cf := compiledMSIRCC(t)
	p, err := cf.Protocol()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "msi_rcc_compiled.pcc", spec.ExportPCC(p))
}
