package sim

import (
	"testing"

	"heterogen/internal/core"
	"heterogen/internal/protocols"
	"heterogen/internal/spec"
	"heterogen/internal/workload"
)

// discardEnv is a spec.Env that drops every message.
type discardEnv struct{}

func (discardEnv) Send(spec.Msg) {}

// TestParkedHeadsCannotDeliver checks the claim the merged drain rests on:
// a parked head would fail if offered now. After every drain of the merged
// directory, each pending channel must be parked under its head's address
// (none left ready), and every parked head, offered to a clone of the
// directory, must fail. The golden trajectory checks the consequence; this
// checks the per-address independence directly, on all three handshake
// variants, the Conservative design, and a pair whose caches self-invalidate
// on fills.
func TestParkedHeadsCannotDeliver(t *testing.T) {
	cfg := tinyConfig()
	layout := workload.Layout{BigCores: cfg.BigCores, TinyCores: cfg.TinyCores}
	type setup struct {
		pair         [2]string
		bench        string
		conservative bool
	}
	setups := []setup{
		{DefaultPair(), "ligra-bf", false},
		{DefaultPair(), "cilk5-nq", false},
		{DefaultPair(), "fs-storm", false},
		{DefaultPair(), "ligra-bf", true},
		{[2]string{protocols.NameMESI, "TSO-CC"}, "ligra-bfs", false},
	}
	for _, su := range setups {
		for _, v := range Figure10Variants() {
			params, err := workload.BenchmarkByName(su.bench)
			if err != nil {
				t.Fatal(err)
			}
			params.OpsPerCore = 80
			f, err := core.Fuse(core.Options{Handshake: v.Handshake, ProxyPool: cfg.ProxyPool,
				ForceConservative: su.conservative},
				protocols.MustByName(su.pair[0]), protocols.MustByName(su.pair[1]))
			if err != nil {
				t.Fatal(err)
			}
			s, err := New(cfg, f, workload.Generate(params, layout))
			if err != nil {
				t.Fatal(err)
			}
			name := su.pair[0] + "&" + su.pair[1] + "/" + su.bench + "/" + v.Name
			if su.conservative {
				name += "/conservative"
			}
			parked, drains := 0, 0
			s.afterMergedDrain = func() {
				drains++
				n := checkParked(t, s, name)
				parked += n
			}
			if _, err := s.Run(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if t.Failed() {
				return
			}
			t.Logf("%s: %d drains, %d parked heads checked", name, drains, parked)
		}
	}
}

// checkParked verifies the drain invariants after one merged drain and
// returns the number of parked heads it offered.
func checkParked(t *testing.T, s *Sim, name string) int {
	t.Helper()
	if r := s.md.ready.next(0); r >= 0 {
		t.Fatalf("%s: rank %d still ready after the drain", name, r)
	}
	clone := s.merged.Clone().(*core.MergedDir)
	offered := 0
	for _, a := range s.md.parkedAddrs {
		for _, r := range s.md.parked[a].ranks {
			ch := &s.chans[s.chanIdx[s.rankBase+int(r)]]
			if !ch.pending() {
				t.Fatalf("%s: rank %d parked on a%d with an empty queue", name, r, a)
			}
			m := ch.q[ch.head]
			if m.Addr != a {
				t.Fatalf("%s: head %v parked under a%d", name, m, a)
			}
			if clone.Deliver(discardEnv{}, m) {
				t.Fatalf("%s: parked head %v delivers", name, m)
			}
			offered++
		}
	}
	// Every pending merged channel must be parked.
	pending := 0
	for ci := range s.chans {
		if s.nodeKind[s.chanKeys[ci].dst] == nkMerged && s.chans[ci].pending() {
			pending++
		}
	}
	if pending != offered {
		t.Fatalf("%s: %d pending merged channels, %d parked", name, pending, offered)
	}
	return offered
}

// TestReadySetNext pins the two-level bitset's ordered scan across word
// and summary-word boundaries.
func TestReadySetNext(t *testing.T) {
	var b readySet
	b.init(64 * 64 * 3)
	ranks := []int{0, 1, 63, 64, 4095, 4096, 4097, 8191, 64*64*3 - 1}
	for _, r := range ranks {
		b.set(r)
	}
	var got []int
	for r := b.next(0); r >= 0; r = b.next(r + 1) {
		got = append(got, r)
	}
	if len(got) != len(ranks) {
		t.Fatalf("next visited %v, want %v", got, ranks)
	}
	for i := range ranks {
		if got[i] != ranks[i] {
			t.Fatalf("next visited %v, want %v", got, ranks)
		}
	}
	for _, r := range ranks {
		b.clear(r)
	}
	if r := b.next(0); r != -1 {
		t.Fatalf("cleared set still yields rank %d", r)
	}
}

// TestRunReturnsCopy checks that Run's result does not alias the
// simulator: a caller keeping it must not keep the machine alive, and
// mutating it must not change a later Run's result.
func TestRunReturnsCopy(t *testing.T) {
	cfg := tinyConfig()
	params, err := workload.BenchmarkByName("ligra-bf")
	if err != nil {
		t.Fatal(err)
	}
	params.OpsPerCore = 30
	s, err := New(cfg, tinyFusion(t, core.HSWrites),
		workload.Generate(params, workload.Layout{BigCores: cfg.BigCores, TinyCores: cfg.TinyCores}))
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if first == &s.Stats {
		t.Fatal("Run returned a pointer into the simulator")
	}
	want := formatStats(first)
	first.Cycles++
	first.Messages = 0
	for ty := range first.ByType {
		first.ByType[ty] += 1000
	}
	first.ByType["__bogus"] = 1
	second, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := formatStats(second); got != want {
		t.Errorf("mutating a Run result changed a later one:\n got: %s\nwant: %s", got, want)
	}
}
