package protocols

import (
	"testing"

	"heterogen/internal/spec"
)

// TestPCCExportFixpointAllBuiltins pins export → parse → export as a
// byte-identical fixpoint for every builtin protocol. The compiled-table
// artifact (core/artifact.go) depends on this: it embeds each constituent
// as canonical PCC text, and the loader re-fuses the reparsed protocols
// and cross-checks the stored content digest — which only reproduces if
// the text form loses nothing a re-export would reveal.
func TestPCCExportFixpointAllBuiltins(t *testing.T) {
	for _, name := range Names() {
		p := MustByName(name)
		text := spec.ExportPCC(p)
		reparsed, err := spec.ParsePCC(text)
		if err != nil {
			t.Fatalf("%s: reparsing exported PCC: %v", name, err)
		}
		if err := reparsed.Validate(); err != nil {
			t.Errorf("%s: reparsed protocol invalid: %v", name, err)
		}
		if again := spec.ExportPCC(reparsed); again != text {
			t.Errorf("%s: PCC export not a fixpoint across a parse round trip", name)
		}
	}
}

// FuzzParsePCC feeds the PCC parser arbitrary text, seeded with the
// exports of the seven Table I protocols. Every input must either fail to
// parse or give a protocol whose export parses back to itself: export →
// parse → export is a byte-identical fixpoint.
func FuzzParsePCC(f *testing.F) {
	for _, name := range TableINames() {
		f.Add(spec.ExportPCC(MustByName(name)))
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := spec.ParsePCC(src)
		if err != nil {
			return
		}
		text := spec.ExportPCC(p)
		reparsed, err := spec.ParsePCC(text)
		if err != nil {
			t.Fatalf("export of an accepted input does not parse: %v\n%s", err, text)
		}
		if again := spec.ExportPCC(reparsed); again != text {
			t.Fatalf("PCC export not a fixpoint:\nfirst:\n%s\nsecond:\n%s", text, again)
		}
	})
}
