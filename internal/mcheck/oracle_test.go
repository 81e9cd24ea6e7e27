package mcheck_test

// The numbered search against the plain System, its oracle. A reference
// breadth-first search steps states with Clone+Apply, keys its visited
// map by EncodeBinary and applies the ample-set rule itself; the
// numbered search must report the same counts, deadlocks and outcomes,
// and every successor it builds, materialized back into a System, must
// encode to the image Clone+Apply of its parent and move produces.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"heterogen/internal/core"
	"heterogen/internal/mcheck"
	"heterogen/internal/memmodel"
	"heterogen/internal/protocols"
	"heterogen/internal/spec"
)

// refResult is what the reference search reports.
type refResult struct {
	States, Transitions, PORReduced, Deadlocks int
	DeadlockAt                                 string
	Outcomes                                   memmodel.OutcomeSet
}

// porLocal is what a component needs for the reference search to reduce.
type porLocal interface {
	spec.NodeReferrer
	PORLocal() bool
}

// referenceCandidates lists the ample candidates of s — its caches' ids —
// or nil when some component cannot be reduced over.
func referenceCandidates(s *mcheck.System) []spec.NodeID {
	var cands []spec.NodeID
	for _, c := range s.Components {
		if pc, ok := c.(porLocal); !ok || !pc.PORLocal() {
			return nil
		}
		if cache, ok := c.(*spec.CacheInst); ok {
			cands = append(cands, cache.ID())
		}
	}
	return cands
}

// referenceAmple returns the ample prefix length of moves (reordered in
// place, x's moves first) for the first isolated candidate x with some
// but not all of the moves, or 0.
func referenceAmple(s *mcheck.System, moves []mcheck.Move, cands []spec.NodeID) int {
	var refs spec.NodeSet
	for _, c := range s.Components {
		refs = refs.Or(c.(spec.NodeReferrer).RefNodes())
	}
	owner := func(m mcheck.Move) spec.NodeID {
		switch m.Kind {
		case mcheck.MoveDeliver:
			return mcheck.MoveDst(m)
		case mcheck.MoveIssue:
			return s.Cores[m.Core].Cache
		}
		return m.Cache
	}
next:
	for _, x := range cands {
		if refs.Has(x) {
			continue
		}
		for _, m := range mcheck.InFlight(s) {
			if m.Dst != x && (m.Src == x || m.Req == x) {
				continue next
			}
		}
		var amp, rest []mcheck.Move
		for _, m := range moves {
			if owner(m) == x {
				amp = append(amp, m)
			} else {
				rest = append(rest, m)
			}
		}
		if len(amp) > 0 && len(rest) > 0 {
			copy(moves, append(amp, rest...))
			return len(amp)
		}
	}
	return 0
}

// referenceSearch explores initial breadth-first with Clone+Apply.
func referenceSearch(initial *mcheck.System, opts mcheck.Options) refResult {
	var cands []spec.NodeID
	if opts.POR != mcheck.POROff {
		cands = referenceCandidates(initial)
	}
	r := refResult{Outcomes: memmodel.OutcomeSet{}}
	seen := map[string]bool{string(initial.EncodeBinary(nil)): true}
	queue := []*mcheck.System{initial.Clone()}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		r.States++
		moves := s.Moves(opts.Evictions)
		try := func(m mcheck.Move) bool {
			next := s.Clone()
			if !next.Apply(m) {
				return false
			}
			r.Transitions++
			if key := string(next.EncodeBinary(nil)); !seen[key] {
				seen[key] = true
				queue = append(queue, next)
			}
			return true
		}
		progressed, start := false, 0
		if len(cands) > 0 && len(moves) > 1 {
			if amp := referenceAmple(s, moves, cands); amp > 0 {
				for _, m := range moves[:amp] {
					progressed = try(m) || progressed
				}
				if progressed {
					r.PORReduced++
					continue
				}
				start = amp
			}
		}
		for _, m := range moves[start:] {
			progressed = try(m) || progressed
		}
		if progressed {
			continue
		}
		if s.Quiescent() {
			out := memmodel.Outcome{}
			for t, core := range s.Cores {
				for i, v := range core.Loads {
					out[fmt.Sprintf("T%d:%d", t, i)] = v
				}
			}
			r.Outcomes.Add(out)
			continue
		}
		r.Deadlocks++
		if snap := s.Snapshot(); r.DeadlockAt == "" || snap < r.DeadlockAt {
			r.DeadlockAt = snap
		}
	}
	return r
}

// checkAgainstOracle runs the reference search once per POR mode and the
// numbered search at one and two workers, each on a fresh system from
// build, and compares their counts, deadlocks and outcomes. Without
// reduction, on two workers sharing the tables, every move the numbered
// search tries is also probed (the reduced search tries a subset of those
// moves from a subset of those states): whether or not the visited set admits its successor, it must
// progress exactly when Clone+Apply of the parent progresses, to the same
// image, and each expanded state must try exactly the parent's Moves, in
// order. When marker is nonempty, some expanded state's Snapshot must
// contain it.
func checkAgainstOracle(t *testing.T, build func() *mcheck.System, evictions bool, minStates int, wantDeadlock bool, marker string) {
	t.Helper()
	for _, por := range []mcheck.PORMode{mcheck.POROff, mcheck.PORAuto} {
		name := map[mcheck.PORMode]string{mcheck.POROff: "off", mcheck.PORAuto: "auto"}[por]
		opts := mcheck.Options{Evictions: evictions, POR: por}
		ref := referenceSearch(build(), opts)
		if ref.States < minStates {
			t.Fatalf("por=%s: the reference search covers %d states, want at least %d", name, ref.States, minStates)
		}
		if wantDeadlock != (ref.Deadlocks > 0) {
			t.Fatalf("por=%s: the reference search finds %d deadlocks", name, ref.Deadlocks)
		}
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("por=%s/workers=%d", name, workers), func(t *testing.T) {
				opts := opts
				opts.Workers = workers
				var res *mcheck.Result
				if por == mcheck.POROff && workers == 2 {
					res = probedSearch(t, build(), opts, marker)
				} else {
					res = mcheck.Explore(build(), opts)
				}
				got := refResult{States: res.States, Transitions: res.Transitions, PORReduced: res.PORReduced,
					Deadlocks: res.Deadlocks, DeadlockAt: res.DeadlockAt, Outcomes: res.Outcomes}
				if !reflect.DeepEqual(got, ref) {
					t.Fatalf("numbered search %d states, %d transitions, %d ample, %d deadlocks, %d outcomes;\noracle %d, %d, %d, %d, %d\nDeadlockAt %q\noracle     %q",
						got.States, got.Transitions, got.PORReduced, got.Deadlocks, len(got.Outcomes),
						ref.States, ref.Transitions, ref.PORReduced, ref.Deadlocks, len(ref.Outcomes),
						got.DeadlockAt, ref.DeadlockAt)
				}
			})
		}
	}
}

// probedSearch runs the numbered search with every tried move checked
// against Clone+Apply, as checkAgainstOracle describes.
func probedSearch(t *testing.T, sys *mcheck.System, opts mcheck.Options, marker string) *mcheck.Result {
	t.Helper()
	type expansion struct{ tried, want []string }
	var mu sync.Mutex
	var bad []string
	parents := map[string]*expansion{}
	progressed := 0
	res := mcheck.ExploreProbed(sys, opts, func(parent *mcheck.System, m mcheck.Move, succ *mcheck.System) {
		want := parent.Clone()
		ok := want.Apply(m)
		key := string(parent.EncodeBinary(nil))
		mu.Lock()
		defer mu.Unlock()
		e := parents[key]
		if e == nil {
			e = &expansion{}
			for _, pm := range parent.Moves(opts.Evictions) {
				e.want = append(e.want, fmt.Sprint(pm))
			}
			parents[key] = e
			if marker != "" && strings.Contains(parent.Snapshot(), marker) {
				marker = ""
			}
		}
		e.tried = append(e.tried, fmt.Sprint(m))
		switch {
		case ok != (succ != nil):
			bad = append(bad, fmt.Sprintf("%v progresses=%t, on the oracle %t\nparent: %s", m, succ != nil, ok, parent.Snapshot()))
		case ok && !bytes.Equal(succ.EncodeBinary(nil), want.EncodeBinary(nil)):
			bad = append(bad, fmt.Sprintf("%v leads to\n%s\noracle successor\n%s\nparent: %s", m, succ.Snapshot(), want.Snapshot(), parent.Snapshot()))
		}
		if ok {
			progressed++
		}
	})
	if len(bad) > 0 {
		t.Fatalf("%d tried moves differ from the oracle's; first: %s", len(bad), bad[0])
	}
	if progressed != res.Transitions {
		t.Errorf("probed %d progressed moves, the search counts %d transitions", progressed, res.Transitions)
	}
	if len(parents) == 0 || len(parents) > res.States {
		t.Errorf("probed moves of %d distinct states, the search expanded %d", len(parents), res.States)
	}
	for _, e := range parents {
		if !reflect.DeepEqual(e.tried, e.want) {
			t.Fatalf("an expansion tried %v, the parent's Moves are %v", e.tried, e.want)
		}
	}
	if marker != "" {
		t.Errorf("no expanded state's snapshot contains %q", marker)
	}
	return res
}

func TestNumberedSearchMatchesOracle(t *testing.T) {
	f := fusedMESIRCCO(t)
	fusedProgs := [][]spec.CoreReq{
		{{Op: spec.OpStore, Addr: 0, Value: 1}, {Op: spec.OpLoad, Addr: 1}, {Op: spec.OpRelease}},
		{{Op: spec.OpStore, Addr: 1, Value: 2}, {Op: spec.OpLoad, Addr: 0}, {Op: spec.OpAcquire}},
	}
	t.Run("homogeneous-evictions", func(t *testing.T) {
		checkAgainstOracle(t, func() *mcheck.System {
			sys := mcheck.NewHomogeneous(protocols.MustByName(protocols.NameMSI), 3)
			sys.SetPrograms([][]spec.CoreReq{
				{{Op: spec.OpStore, Addr: 0, Value: 1}},
				{{Op: spec.OpLoad, Addr: 0}},
				{{Op: spec.OpStore, Addr: 0, Value: 2}, {Op: spec.OpLoad, Addr: 0}},
			})
			return sys
		}, true, 1000, false, "")
	})
	t.Run("homogeneous-mesi-evictions", func(t *testing.T) {
		checkAgainstOracle(t, func() *mcheck.System {
			sys := mcheck.NewHomogeneous(protocols.MustByName(protocols.NameMESI), 3)
			sys.SetPrograms([][]spec.CoreReq{
				{{Op: spec.OpStore, Addr: 0, Value: 1}},
				{{Op: spec.OpLoad, Addr: 0}},
				{{Op: spec.OpStore, Addr: 0, Value: 2}},
			})
			return sys
		}, true, 1000, false, "")
	})
	t.Run("interpreted-bridges", func(t *testing.T) {
		checkAgainstOracle(t, func() *mcheck.System {
			sys, _ := core.BuildSystem(f, []int{1, 1})
			sys.SetPrograms(fusedProgs)
			return sys
		}, true, 1000, false, "br{")
	})
	t.Run("compiled-growing", func(t *testing.T) {
		cf := compileFused(t, f, fusedProgs)
		checkAgainstOracle(t, cf.System, true, 1000, false, "")
	})
	t.Run("msi-no-putack-deadlock", func(t *testing.T) {
		text, err := os.ReadFile(filepath.Join("..", "core", "testdata", "msi_no_putack.pcc"))
		if err != nil {
			t.Fatal(err)
		}
		p, err := spec.ParsePCC(string(text))
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstOracle(t, func() *mcheck.System {
			sys := mcheck.NewHomogeneous(p, 2)
			progs := make([][]spec.CoreReq, 2)
			for c := range progs {
				progs[c] = []spec.CoreReq{{Op: spec.OpStore, Addr: 0, Value: c + 1}, {Op: spec.OpLoad, Addr: 0},
					{Op: spec.OpRelease}, {Op: spec.OpAcquire}}
			}
			sys.SetPrograms(progs)
			return sys
		}, true, 100, true, "")
	})
}
