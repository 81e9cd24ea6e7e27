package cliopts

import (
	"flag"
	"io"
	"testing"

	"heterogen/internal/engine"
)

// parse registers a Search seeded with hash (as hgcheck seeds it) on a
// fresh flag set and parses args.
func parse(t *testing.T, hash bool, args ...string) Search {
	t.Helper()
	var s Search
	s.Hash = hash
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	s.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSearchFlagsParse: the search flags land directly in the engine's
// options, with -por inverted onto NoPOR.
func TestSearchFlagsParse(t *testing.T) {
	s := parse(t, false, "-workers", "3", "-hash", "-por=0")
	want := engine.SearchOptions{Workers: 3, Hash: true, NoPOR: true}
	if s.SearchOptions != want {
		t.Fatalf("parsed %+v, want %+v", s.SearchOptions, want)
	}
	if s := parse(t, false, "-por"); s.NoPOR {
		t.Fatal("-por did not turn the reduction on")
	}
}

// TestSearchFlagDefaults: POR defaults on everywhere; hash is on only
// where the command seeds it, and -hash=0 still turns a seed off.
func TestSearchFlagDefaults(t *testing.T) {
	if s := parse(t, false); s.SearchOptions != (engine.SearchOptions{}) {
		t.Fatalf("unseeded defaults %+v, want the zero options (POR on, hash off)", s.SearchOptions)
	}
	if s := parse(t, true); s.SearchOptions != (engine.SearchOptions{Hash: true}) {
		t.Fatalf("hash-seeded defaults %+v, want hash on, POR on", s.SearchOptions)
	}
	if s := parse(t, true, "-hash=0"); s.Hash {
		t.Fatal("-hash=0 did not override the seeded default")
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	new(Search).Register(fs)
	if got := fs.Lookup("por").DefValue; got != "true" {
		t.Fatalf("-por default renders %q, want true", got)
	}
}

// TestRemovedFlagsRejected: a flag of a deleted feature is an unknown
// flag, not a silently ignored one.
func TestRemovedFlagsRejected(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	new(Search).Register(fs)
	if err := fs.Parse([]string{"-spill-dir", "d"}); err == nil {
		t.Fatal("-spill-dir parsed; it names no flag")
	}
}

// TestParseBytes: units are powers of 1024, and a size that would leave
// the budget at its default — negative, rounding to 0 bytes, or out of
// range — is an error, while an explicit 0 still means the default.
func TestParseBytes(t *testing.T) {
	for in, want := range map[string]int64{
		"": 0, "0": 0, "512": 512, "4KiB": 4 << 10, "2M": 2 << 20, "1.5GB": 3 << 29, "1k": 1 << 10,
	} {
		if got, err := ParseBytes(in); err != nil || got != want {
			t.Errorf("ParseBytes(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, in := range []string{"-1MiB", "-1", "0.0001KiB", "0.5", "NaN", "Inf", "1e30G", "12Q", "MiB"} {
		if got, err := ParseBytes(in); err == nil {
			t.Errorf("ParseBytes(%q) = %d, want an error", in, got)
		}
	}
}
