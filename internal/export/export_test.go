package export

import (
	"strings"
	"testing"

	"heterogen/internal/core"
	"heterogen/internal/protocols"
)

func TestDOTMachine(t *testing.T) {
	p := protocols.MustByName(protocols.NameMSI)
	dot := DOTMachine(p.Cache)
	for _, want := range []string{"digraph", "doublecircle", `"I" ->`, "GetS", "rankdir=LR"} {
		if !strings.Contains(dot, want) {
			t.Errorf("cache DOT missing %q", want)
		}
	}
	// Every state appears as a node.
	for _, s := range p.Cache.States() {
		if !strings.Contains(dot, `"`+string(s)+`"`) {
			t.Errorf("state %s missing from DOT", s)
		}
	}
	full := DOTProtocol(p)
	if strings.Count(full, "digraph") != 2 {
		t.Error("DOTProtocol should contain two digraphs")
	}
}

func TestDOTFlat(t *testing.T) {
	f, err := core.Fuse(core.Options{},
		protocols.MustByName(protocols.NameMSI), protocols.MustByName(protocols.NameRCC))
	if err != nil {
		t.Fatal(err)
	}
	_, cf, err := core.EnumerateCompiled(f, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	dot := DOTFlat(cf.FlatFSM())
	if !strings.Contains(dot, "digraph") || !strings.Contains(dot, "->") {
		t.Fatalf("merged DOT malformed:\n%s", dot)
	}
	if len(cf.FlatFSM().Edges) == 0 {
		t.Fatal("compiled table projected no edges")
	}
	// Edge labels are deduplicated message-type lists.
	if strings.Contains(dot, ",,") {
		t.Error("edge label contains empty entries")
	}
}

func TestMurphiStructure(t *testing.T) {
	for _, name := range []string{protocols.NameMSI, protocols.NameMESI, protocols.NameRCC, protocols.NameTSOCC} {
		p := protocols.MustByName(name)
		m := Murphi(p, DefaultMurphiConfig())
		for _, want := range []string{
			"const", "type", "var", "startstate", "procedure Send",
			"function CacheRecv", "function DirRecv", "ruleset", "rule \"deliver\"",
		} {
			if !strings.Contains(m, want) {
				t.Errorf("%s Murphi missing %q", name, want)
			}
		}
		// Every cache state and message type appears.
		for _, s := range p.Cache.States() {
			if !strings.Contains(m, ident("C_", string(s))) {
				t.Errorf("%s: cache state %s missing", name, s)
			}
		}
		for _, mt := range p.MsgTypes() {
			if !strings.Contains(m, ident("M_", string(mt))) {
				t.Errorf("%s: message %s missing", name, mt)
			}
		}
		// Balanced begin/end pairs (coarse syntactic sanity).
		begins := strings.Count(m, "begin\n") + strings.Count(m, "begin ")
		ends := strings.Count(m, "end;")
		if begins == 0 || ends < begins {
			t.Errorf("%s: unbalanced begin(%d)/end(%d)", name, begins, ends)
		}
	}
}

func TestMurphiSWMRInvariantOnlyForSC(t *testing.T) {
	msi := Murphi(protocols.MustByName(protocols.NameMSI), DefaultMurphiConfig())
	if !strings.Contains(msi, "invariant") {
		t.Error("MSI Murphi lacks the single-writer invariant")
	}
	rcc := Murphi(protocols.MustByName(protocols.NameRCC), DefaultMurphiConfig())
	if strings.Contains(rcc, "invariant \"at most one writable copy\"") {
		t.Error("RCC Murphi must not assert SWMR (buffered dirty copies are legal)")
	}
}

func TestMurphiAckCounting(t *testing.T) {
	m := Murphi(protocols.MustByName(protocols.NameMSI), DefaultMurphiConfig())
	if !strings.Contains(m, "CacheLastAck") || !strings.Contains(m, "ackbal") {
		t.Error("ack-counting plumbing missing")
	}
	if !strings.Contains(m, "M_InvAck") {
		t.Error("InvAck interception missing")
	}
}

func TestIdentSanitization(t *testing.T) {
	if got := ident("C_", "IM_AD"); got != "C_IM_AD" {
		t.Errorf("ident = %q", got)
	}
	if got := ident("M_", "Fwd-Get.S"); got != "M_Fwd_Get_S" {
		t.Errorf("ident = %q", got)
	}
}
