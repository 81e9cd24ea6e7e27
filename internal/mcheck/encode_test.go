package mcheck_test

// External-package tests for the binary state image: they walk real
// systems (homogeneous, interpreted fused, which exercises the merged
// directory's AppendBinary, and compiled fused, whose directory image is
// its state register) and check EncodeBinary distinguishes exactly the
// states Snapshot distinguishes and decodes back to the state it encodes.

import (
	"bytes"
	"testing"

	"heterogen/internal/core"
	"heterogen/internal/mcheck"
	"heterogen/internal/protocols"
	"heterogen/internal/spec"
)

// walkStates enumerates every reachable state (Snapshot-keyed BFS, with
// evictions) and hands each to visit.
func walkStates(t *testing.T, sys *mcheck.System, limit int, visit func(*mcheck.System)) {
	t.Helper()
	seen := map[string]bool{sys.Snapshot(): true}
	queue := []*mcheck.System{sys}
	for len(queue) > 0 && len(seen) < limit {
		cur := queue[0]
		queue = queue[1:]
		visit(cur)
		for _, mv := range cur.Moves(true) {
			next := cur.Clone()
			if !next.Apply(mv) {
				continue
			}
			snap := next.Snapshot()
			if seen[snap] {
				continue
			}
			seen[snap] = true
			queue = append(queue, next)
		}
	}
}

// checkEncodingBijective asserts snapshot-equality ⇔ binary-equality over
// every reachable state of sys.
func checkEncodingBijective(t *testing.T, sys *mcheck.System, limit int) {
	t.Helper()
	snapToBin := map[string]string{}
	binToSnap := map[string]string{}
	states := 0
	walkStates(t, sys, limit, func(s *mcheck.System) {
		states++
		snap := s.Snapshot()
		bin := string(s.EncodeBinary(nil))
		if prev, ok := snapToBin[snap]; ok && prev != bin {
			t.Fatalf("one snapshot, two binary encodings:\nsnap %q\nbin1 %x\nbin2 %x", snap, prev, bin)
		}
		if prev, ok := binToSnap[bin]; ok && prev != snap {
			t.Fatalf("binary encoding collides across distinct states:\nbin %x\nsnap1 %q\nsnap2 %q", bin, prev, snap)
		}
		snapToBin[snap] = bin
		binToSnap[bin] = snap
	})
	if states < 10 {
		t.Fatalf("walk visited only %d states — not a meaningful equivalence check", states)
	}
	if len(snapToBin) != len(binToSnap) {
		t.Fatalf("encoding not bijective: %d snapshots vs %d binary encodings", len(snapToBin), len(binToSnap))
	}
}

func TestEncodeBinaryMatchesSnapshotHomogeneous(t *testing.T) {
	sys := mcheck.NewHomogeneous(protocols.MustByName(protocols.NameMSI), 2)
	sys.SetPrograms([][]spec.CoreReq{
		{{Op: spec.OpStore, Addr: 0, Value: 1}, {Op: spec.OpLoad, Addr: 1}},
		{{Op: spec.OpStore, Addr: 1, Value: 1}, {Op: spec.OpLoad, Addr: 0}},
	})
	checkEncodingBijective(t, sys, 1<<20)
}

// fusedMESIRCCO fuses the headline MESI & RCC-O pair.
func fusedMESIRCCO(t *testing.T) *core.Fusion {
	t.Helper()
	f, err := core.Fuse(core.Options{},
		protocols.MustByName(protocols.NameMESI), protocols.MustByName(protocols.NameRCCO))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// compileFused compiles f for progs on one cache per cluster, with
// evictions: its System() is the interpreted composite seeded with a
// finished table that holds every (state, message) pair a search of progs
// meets.
func compileFused(t *testing.T, f *core.Fusion, progs [][]spec.CoreReq) *core.CompiledFusion {
	t.Helper()
	cf, err := core.Compile(f, core.CompileConfig{CachesPerCluster: []int{1, 1}, Programs: progs, Evictions: true})
	if err != nil {
		t.Fatal(err)
	}
	return cf
}

// TestEncodeBinaryMatchesSnapshotFused checks the interpreted merged
// directory, as BuildSystem builds it and as a compiled table's System()
// clones it from the table's template.
func TestEncodeBinaryMatchesSnapshotFused(t *testing.T) {
	f := fusedMESIRCCO(t)
	progs := [][]spec.CoreReq{
		{{Op: spec.OpStore, Addr: 0, Value: 1}, {Op: spec.OpLoad, Addr: 1}},
		{{Op: spec.OpStore, Addr: 1, Value: 2}, {Op: spec.OpRelease}},
	}
	interp, _ := core.BuildSystem(f, []int{1, 1})
	interp.SetPrograms(progs)
	// Cap the walks: the fused eviction-enabled space is large and a broad
	// prefix exercises every encoder (dirs, proxies, bridges, channels).
	t.Run("interpreted", func(t *testing.T) { checkEncodingBijective(t, interp, 20000) })
	t.Run("compiled", func(t *testing.T) {
		checkEncodingBijective(t, compileFused(t, f, progs).System(), 20000)
	})
}

// TestSpillCodecRoundTrip round-trips every walked state of a homogeneous,
// an interpreted fused and a seeded fused system through its numbered
// vector, the form a search keys and queues it in: numbering the state
// and materializing the vector into a clone of the initial system must
// re-encode to identical bytes and render an identical snapshot. In the
// seeded tables the directory's states are the seed's, so its images
// must materialize exactly too. (The name predates the deletion of
// frontier spilling.)
func TestSpillCodecRoundTrip(t *testing.T) {
	progs := [][]spec.CoreReq{
		{{Op: spec.OpStore, Addr: 0, Value: 1}, {Op: spec.OpLoad, Addr: 1}, {Op: spec.OpRelease}},
		{{Op: spec.OpStore, Addr: 1, Value: 2}, {Op: spec.OpLoad, Addr: 0}, {Op: spec.OpAcquire}},
	}
	f := fusedMESIRCCO(t)
	homog := mcheck.NewHomogeneous(protocols.MustByName(protocols.NameMESI), 2)
	homog.SetPrograms(progs)
	interp, _ := core.BuildSystem(f, []int{1, 1})
	interp.SetPrograms(progs)
	for _, tc := range []struct {
		name string
		sys  *mcheck.System
	}{
		{"homogeneous", homog},
		{"interpreted", interp},
		{"compiled", compileFused(t, f, progs).System()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			roundTrip := mcheck.RoundTripper(tc.sys.Clone())
			states := 0
			// Bounded walk with evictions: checks the image on live
			// protocol states (in-flight messages, pending requests, sync
			// waits), not just the initial one.
			walkStates(t, tc.sys, 3000, func(cur *mcheck.System) {
				states++
				enc := cur.EncodeBinary(nil)
				clone := roundTrip(cur)
				if re := clone.EncodeBinary(nil); !bytes.Equal(enc, re) {
					t.Fatalf("re-encode differs from encode\nstate: %s", cur.Snapshot())
				}
				if got, want := clone.Snapshot(), cur.Snapshot(); got != want {
					t.Fatalf("snapshot drift after round trip\ngot:  %s\nwant: %s", got, want)
				}
			})
			if states < 1000 {
				t.Fatalf("walk covered only %d states — workload too small to trust", states)
			}
		})
	}
}
