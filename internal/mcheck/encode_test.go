package mcheck_test

// External-package tests for the binary state encoding: they walk real
// systems (homogeneous and fused, which exercises the merged directory's
// AppendBinary) and check EncodeBinary distinguishes exactly the states
// Snapshot distinguishes.

import (
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

func TestEncodeBinaryMatchesSnapshotFused(t *testing.T) {
	f, err := core.Fuse(core.Options{},
		protocols.MustByName(protocols.NameMESI), protocols.MustByName(protocols.NameRCCO))
	if err != nil {
		t.Fatal(err)
	}
	sys, _ := core.BuildSystem(f, []int{1, 1})
	sys.SetPrograms([][]spec.CoreReq{
		{{Op: spec.OpStore, Addr: 0, Value: 1}, {Op: spec.OpLoad, Addr: 1}},
		{{Op: spec.OpStore, Addr: 1, Value: 2}, {Op: spec.OpRelease}},
	})
	// Cap the walk: the fused eviction-enabled space is large and a broad
	// prefix exercises every encoder (dirs, proxies, bridges, channels).
	checkEncodingBijective(t, sys, 20000)
}
