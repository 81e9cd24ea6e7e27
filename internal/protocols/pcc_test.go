package protocols

import (
	"strings"
	"testing"

	"heterogen/internal/spec"
)

// embedded returns every embedded protocol file's name and text, in file
// name order.
func embedded(t testing.TB) (names, srcs []string) {
	entries, err := files.ReadDir("pcc")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		src, err := files.ReadFile("pcc/" + e.Name())
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, e.Name())
		srcs = append(srcs, string(src))
	}
	return names, srcs
}

// TestPCCFilesAreCanonical pins each embedded file as the canonical
// export of the protocol it defines: with its whole-line comments
// dropped, the file is byte for byte spec.ExportPCC of what it parses
// to, and so is the export of the instance ByName hands out. The
// compiled-table artifact (core/artifact.go) depends on this: it embeds
// each constituent as canonical PCC text, and the loader re-fuses the
// reparsed protocols and cross-checks the stored content digest, which
// only reproduces if the text form loses nothing a re-export would
// reveal. The files are exactly the built-ins of Names, each named after
// its protocol.
func TestPCCFilesAreCanonical(t *testing.T) {
	names, srcs := embedded(t)
	canon := map[string]string{} // protocol name → file without comments
	for i, file := range names {
		p, err := spec.ParsePCC(srcs[i])
		if err != nil {
			t.Errorf("%s: %v", file, err)
			continue
		}
		var b strings.Builder
		for _, line := range strings.SplitAfter(srcs[i], "\n") {
			if !strings.HasPrefix(strings.TrimSpace(line), "#") {
				b.WriteString(line)
			}
		}
		if text := spec.ExportPCC(p); b.String() != text {
			t.Errorf("%s without its comments is not the canonical export; want:\n%s", file, text)
		}
		if want := strings.ToLower(p.Name) + ".pcc"; file != want {
			t.Errorf("%s defines protocol %s; want the file named %s", file, p.Name, want)
		}
		canon[p.Name] = b.String()
	}
	for _, n := range Names() {
		text, ok := canon[n]
		if !ok {
			t.Errorf("no embedded file defines built-in %s", n)
			continue
		}
		delete(canon, n)
		if p, err := ByName(n); err != nil {
			t.Error(err)
		} else if spec.ExportPCC(p) != text {
			t.Errorf("%s: ByName's instance exports differently from its file", n)
		}
	}
	for n := range canon {
		t.Errorf("embedded protocol %s is not listed in Names", n)
	}
}

// FuzzParsePCC feeds the PCC parser arbitrary text, seeded with every
// embedded built-in file. Every input must either fail to parse or give a
// protocol whose export parses back to itself: export → parse → export
// is a byte-identical fixpoint.
func FuzzParsePCC(f *testing.F) {
	_, srcs := embedded(f)
	for _, src := range srcs {
		f.Add(src)
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
