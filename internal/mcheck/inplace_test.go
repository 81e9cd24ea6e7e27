package mcheck_test

// The in-place expansion reads each taken state from its image once,
// restores it between moves by re-decoding the dirtied component and
// copying the channels and cores back, and splices each successor's image
// from the parent's. These tests hold it to the clone path it replaced.

import (
	"bytes"
	"strings"
	"testing"

	"heterogen/internal/core"
	"heterogen/internal/mcheck"
	"heterogen/internal/protocols"
	"heterogen/internal/spec"
)

// checkInPlaceImages runs a complete breadth-first search of sys whose
// every expansion is the search's own (mcheck.Expander), with a visited
// set that admits every successor so each spliced image reaches the
// check. For every expanded state, the images the expansion hands on must
// be exactly the EncodeBinary images of Clone()+Apply of each progressed
// move from the parent, and the system restored after the last move must
// re-encode to the parent's image. The search's own visited set is keyed
// by image, so under symmetry it walks the unreduced space. When marker
// is nonempty, some expanded state's Snapshot must contain it.
func checkInPlaceImages(t *testing.T, sys *mcheck.System, opts mcheck.Options, minStates int, marker string) {
	t.Helper()
	opts.POR = mcheck.POROff // every progressed move, not an ample subset
	e := mcheck.NewExpander(sys, opts)
	template := sys.Clone()
	root := sys.EncodeBinary(nil)
	seen := map[string]bool{string(root): true}
	queue := [][]byte{root}
	states := 0
	for ; len(queue) > 0; states++ {
		pre := queue[0]
		queue = queue[1:]
		parent := template.Clone()
		if err := mcheck.DecodeImage(parent, pre); err != nil {
			t.Fatal(err)
		}
		if marker != "" && strings.Contains(parent.Snapshot(), marker) {
			marker = ""
		}
		want := map[string]int{}
		progressed := 0
		for _, mv := range parent.Moves(opts.Evictions) {
			if next := parent.Clone(); next.Apply(mv) {
				want[string(next.EncodeBinary(nil))]++
				progressed++
			}
		}
		restored, applied, err := e.Expand(pre, func([]byte) bool { return true }, func(img []byte) {
			if want[string(img)] == 0 {
				t.Fatalf("state %d: the expansion handed on an image no move's Clone()+Apply encodes to\nparent: %s", states, parent.Snapshot())
			}
			want[string(img)]--
			if !seen[string(img)] {
				seen[string(img)] = true
				queue = append(queue, bytes.Clone(img))
			}
		})
		if err != nil {
			t.Fatalf("state %d: %v", states, err)
		}
		if applied != progressed {
			t.Fatalf("state %d: the expansion applied %d moves, the clone path progresses %d", states, applied, progressed)
		}
		if !bytes.Equal(restored, pre) {
			t.Fatalf("state %d: the restored system does not re-encode to the parent image\nparent: %s", states, parent.Snapshot())
		}
	}
	if states < minStates {
		t.Fatalf("search covered only %d states, want at least %d", states, minStates)
	}
	if marker != "" {
		t.Fatalf("no expanded state's snapshot contains %q", marker)
	}
}

func TestInPlaceSuccessorImages(t *testing.T) {
	f := fusedMESIRCCO(t)
	fusedProgs := [][]spec.CoreReq{
		{{Op: spec.OpStore, Addr: 0, Value: 1}, {Op: spec.OpLoad, Addr: 1}, {Op: spec.OpRelease}},
		{{Op: spec.OpStore, Addr: 1, Value: 2}, {Op: spec.OpLoad, Addr: 0}, {Op: spec.OpAcquire}},
	}
	t.Run("homogeneous-evictions", func(t *testing.T) {
		sys := mcheck.NewHomogeneous(protocols.MustByName(protocols.NameMESI), 3)
		sys.SetPrograms([][]spec.CoreReq{
			{{Op: spec.OpStore, Addr: 0, Value: 1}},
			{{Op: spec.OpLoad, Addr: 0}},
			{{Op: spec.OpStore, Addr: 0, Value: 2}},
		})
		checkInPlaceImages(t, sys, mcheck.Options{Evictions: true}, 1000, "")
	})
	t.Run("interpreted-bridges", func(t *testing.T) {
		sys, _ := core.BuildSystem(f, []int{1, 1})
		sys.SetPrograms(fusedProgs)
		checkInPlaceImages(t, sys, mcheck.Options{Evictions: true}, 1000, "br{")
	})
	t.Run("compiled-growing", func(t *testing.T) {
		checkInPlaceImages(t, core.FusedSystem(f, []int{1, 1}, fusedProgs), mcheck.Options{Evictions: true}, 1000, "")
	})
	t.Run("symmetry", func(t *testing.T) {
		sys := mcheck.NewHomogeneous(protocols.MustByName(protocols.NameMSI), 3)
		sys.SetPrograms(symmetricPrograms(3))
		checkInPlaceImages(t, sys, mcheck.Options{Symmetry: true}, 1000, "")
	})
}
