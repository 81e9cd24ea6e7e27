package mcheck

// Tests for the state-storage engine (storage.go): the visited set's two
// key kinds under concurrency, growth and a memory budget, the exact kind
// against a reference model and under forced tag collisions, and
// agreement of hash compaction with the exact search on the litmus
// configurations. The
// fused-pair agreement matrix lives in storage_pairs_test.go and the
// state-image round trip in encode_test.go (external package; they need
// core.Fuse).

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"heterogen/internal/memmodel"
	"heterogen/internal/protocols"
	"heterogen/internal/spec"
)

// encOf builds a distinct 8-byte state encoding for synthetic inserts.
func encOf(i int) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(i))
	return b[:]
}

// keyKinds are the visited set's two kinds of key, named by their
// Result.Storage labels.
var keyKinds = []struct {
	name string
	fp   bool // hash compaction
}{{"exact", false}, {"hash-compaction", true}}

// TestFPSetInsertSemantics: in either key kind, the first insert of a
// key is new, repeats are not, and the count survives growth (190k
// inserts double every stripe eight times from its 16 slots).
func TestFPSetInsertSemantics(t *testing.T) {
	const n = 190_000
	for _, kind := range keyKinds {
		t.Run(kind.name, func(t *testing.T) {
			s := newVisited(Options{HashCompaction: kind.fp}, 1)
			for i := 0; i < n; i++ {
				if !s.Insert(encOf(i)) {
					t.Fatalf("insert %d: not reported new", i)
				}
			}
			for i := 0; i < n; i += 97 {
				if s.Insert(encOf(i)) {
					t.Fatalf("re-insert %d: reported new", i)
				}
			}
			if s.Size() != n {
				t.Fatalf("Size() = %d, want %d", s.Size(), n)
			}
			if s.Full() {
				t.Fatal("set under the default budget reported Full")
			}
			st := s.stats()
			if st.mode != kind.name {
				t.Fatalf("mode = %q", st.mode)
			}
			if !kind.fp {
				if st.omission != 0 {
					t.Fatalf("exact omission = %g, want 0", st.omission)
				}
				return
			}
			if st.omission <= 0 || st.omission > 1e-6 {
				t.Fatalf("omission = %g, want small positive", st.omission)
			}
		})
	}
}

// TestBytesPerStateRegression is the storage counterpart of the allocation
// guard. Hash compaction must stay a flat 8 bytes per slot, every stripe
// growing at 3/4 load: at 190k states that lands most stripes on 4Ki
// slots, ~11 bytes/state. The exact set must keep storing a state as its
// few-byte numbered vector behind an 8-byte slot: on the release/acquire
// MP search with evictions that measures 32.4 bytes/state (the budget
// dates from the collapse-compressed set, 39.5 with its intern tables).
// A slot-size, load-factor or key-size regression trips this.
func TestBytesPerStateRegression(t *testing.T) {
	t.Run("hash-compaction", func(t *testing.T) {
		const n = 190_000
		s := newVisited(Options{HashCompaction: true}, 1)
		for i := 0; i < n; i++ {
			s.Insert(encOf(i))
		}
		st := s.stats()
		bps := float64(st.tableBytes) / float64(n)
		if bps > 12 {
			t.Fatalf("hash compaction costs %.2f bytes/state (table %d bytes for %d states), budget is 12",
				bps, st.tableBytes, n)
		}
		if bps < 8 {
			t.Fatalf("%.2f bytes/state is below the 8-byte slot floor — accounting bug", bps)
		}
		// Each stripe doubles at 3/4 of its own slots, so the load over
		// all slots peaks a few points lower, by the spread of the keys
		// over the stripes (0.708 here).
		if st.peakLoad < 0.7 {
			t.Fatalf("peak load %.3f never neared the 3/4 growth threshold", st.peakLoad)
		}
	})
	t.Run("exact", func(t *testing.T) {
		const budget = 39.5 * 1.1
		res := exploreWith(t, mpSync(), 1, Options{Evictions: true, POR: POROff})
		t.Logf("exact: %d states, %d table bytes, %.1f bytes/state", res.States, res.TableBytes, res.BytesPerState)
		if res.Storage != "exact" || res.Truncated {
			t.Fatalf("storage %q, truncated %t", res.Storage, res.Truncated)
		}
		if res.BytesPerState > budget {
			t.Fatalf("exact storage costs %.1f bytes/state (table %d bytes for %d states), budget is %.1f",
				res.BytesPerState, res.TableBytes, res.States, budget)
		}
		if res.BytesPerState < 9 {
			t.Fatalf("%.1f bytes/state is below an 8-byte slot plus a vector — accounting bug", res.BytesPerState)
		}
	})
}

// TestVisitedExactlyOnceUnderContention: workers race to insert the same
// stream of keys while every stripe grows from its 16 slots. In either
// key kind each key must be claimed new by exactly one worker — the
// property that keeps parallel counts equal to sequential ones (no lost
// or double-expanded states). Run under -race this also exercises the
// stripe locks.
func TestVisitedExactlyOnceUnderContention(t *testing.T) {
	const n = 200_000
	workers := runtime.NumCPU()
	if workers < 4 {
		workers = 4
	}
	for _, kind := range keyKinds {
		t.Run(kind.name, func(t *testing.T) {
			s := newVisited(Options{HashCompaction: kind.fp}, workers)
			claimed := make([]int64, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var key []byte
					for i := 0; i < n; i++ {
						key = vecKey(key[:0], i%97, i/97%211, i/(97*211))
						if s.Insert(key) {
							claimed[w]++
						}
					}
				}()
			}
			wg.Wait()
			total := int64(0)
			for _, c := range claimed {
				total += c
			}
			if total != n {
				t.Fatalf("%d workers claimed %d states as new, want exactly %d", workers, total, n)
			}
			if s.Size() != n {
				t.Fatalf("Size() = %d, want %d", s.Size(), n)
			}
		})
	}
}

// vecKey appends the key of a vector of the given numbers.
func vecKey(key []byte, nums ...int) []byte {
	for _, x := range nums {
		key = binary.AppendUvarint(key, uint64(x))
	}
	return key
}

// randomVec draws a vector shaped like a search's: three component
// numbers (one from over 16,384, so keys cross the one-, two- and
// three-byte uvarint widths), one core word, then zero to three
// (channel, FIFO) pairs, so vectors of one channel count extend those of
// a smaller one.
func randomVec(rng *rand.Rand) *vec {
	v := &vec{
		comps: []uint32{uint32(rng.IntN(5)), uint32(rng.IntN(40_000)), uint32(rng.IntN(3))},
		cores: []uint32{uint32(rng.IntN(4))},
	}
	for range rng.IntN(4) {
		v.chans = append(v.chans, chanFIFO{uint32(rng.IntN(8)), uint32(1 + rng.IntN(4))})
	}
	return v
}

// TestExactSetMatchesReference: random vector keys must be reported new
// exactly when a map of whole keys has not seen them.
func TestExactSetMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	s := newVisited(Options{}, 1)
	ref := map[string]struct{}{}
	var key []byte
	for i := 0; i < 120_000; i++ {
		key = randomVec(rng).appendKey(key[:0])
		_, seen := ref[string(key)]
		ref[string(key)] = struct{}{}
		if got := s.Insert(key); got == seen {
			t.Fatalf("insert %d (%x): reported new=%t, reference has seen=%t", i, key, got, seen)
		}
	}
	if s.Size() != len(ref) {
		t.Fatalf("Size() = %d, reference holds %d keys", s.Size(), len(ref))
	}
	if st := s.stats(); st.mode != "exact" || st.tableBytes <= 0 {
		t.Fatalf("stats: mode %q, %d table bytes", st.mode, st.tableBytes)
	}
}

// TestExactSetForcedTagCollisions: a stripe matches a probe by its 32-bit
// tag and then by the arena bytes at the slot's offset, so a key must
// never match a stored key it extends, one that extends it, or a stored
// key followed by the next arena entry. Every key here goes to one stripe
// under one tag, so every probe compares bytes: a key and its extensions
// by one and two channels, in both orders, then random vectors against a
// map. Each key must also decode to its vector.
func TestExactSetForcedTagCollisions(t *testing.T) {
	const tag = 0x5eed
	base := &vec{comps: []uint32{1, 2}, cores: []uint32{3}}
	one := &vec{comps: base.comps, cores: base.cores, chans: []chanFIFO{{5, 1}}}
	two := &vec{comps: base.comps, cores: base.cores, chans: []chanFIFO{{5, 1}, {7, 2}}}
	for _, order := range [][]*vec{{base, one, two}, {two, one, base}, {one, base, two}} {
		var s stripe
		for round := range 2 {
			for _, v := range order {
				key := v.appendKey(nil)
				if isNew, ok := s.insert(key, tag); !ok || isNew != (round == 0) {
					t.Fatalf("round %d, key %x with %d channels: new=%t ok=%t", round, key, len(v.chans), isNew, ok)
				}
			}
		}
	}

	rng := rand.New(rand.NewPCG(3, 4))
	n := &numbering{pos: make([]*compTable, 3), coreWords: 1}
	var s stripe
	ref := map[string]struct{}{}
	var got vec
	for i := range 3000 {
		v := randomVec(rng)
		key := v.appendKey(nil)
		got.decode(key, n)
		if fmt.Sprint(got) != fmt.Sprint(*v) {
			t.Fatalf("key %x decodes to %v, want %v", key, got, *v)
		}
		_, seen := ref[string(key)]
		ref[string(key)] = struct{}{}
		if isNew, ok := s.insert(key, tag); !ok || isNew == seen {
			t.Fatalf("insert %d (%x): new=%t ok=%t, reference has seen=%t", i, key, isNew, ok, seen)
		}
	}
	if s.n != len(ref) {
		t.Fatalf("stripe holds %d keys, reference %d", s.n, len(ref))
	}
}

// TestExactSetSmallSearchFloor: the exact set's tables start small and
// grow, so the 3,614-state deadlock check of two MSI caches on one
// address (hgcheck's driver: store, load, release, acquire per core)
// holds about 115 KiB, not a megabyte of preallocated stripes.
func TestExactSetSmallSearchFloor(t *testing.T) {
	sys := NewHomogeneous(protocols.MustByName(protocols.NameMSI), 2)
	progs := make([][]spec.CoreReq, 2)
	for c := range progs {
		progs[c] = []spec.CoreReq{
			{Op: spec.OpStore, Addr: 0, Value: c + 1},
			{Op: spec.OpLoad, Addr: 0},
			{Op: spec.OpRelease},
			{Op: spec.OpAcquire},
		}
	}
	sys.SetPrograms(progs)
	res := Explore(sys, Options{Evictions: true, POR: POROff, Workers: 1})
	t.Logf("%d states, %d table bytes, %.1f bytes/state", res.States, res.TableBytes, res.BytesPerState)
	if res.States != 3614 {
		t.Fatalf("search has %d states, want 3614", res.States)
	}
	if budget := int64(112_592 * 11 / 10); res.TableBytes > budget {
		t.Fatalf("exact set of %d states holds %d bytes, budget %d", res.States, res.TableBytes, budget)
	}
}

// TestFPSetBudgetTruncation: in either key kind, a set whose MemBudget
// stops its stripes growing must declare itself Full — only once a stripe
// it cannot double is 15/16 occupied, or an arena cannot take a key — and
// then reject further states instead of thrashing, never holding more
// than the budget.
func TestFPSetBudgetTruncation(t *testing.T) {
	const budget = 64 << 10
	for _, kind := range keyKinds {
		t.Run(kind.name, func(t *testing.T) {
			s := newVisited(Options{HashCompaction: kind.fp, MemBudget: budget}, 1)
			inserted := 0
			for i := 0; !s.Full(); i++ {
				if i == budget {
					t.Fatalf("set never filled after %d inserts under a %d-byte budget", i, budget)
				}
				if s.Insert(encOf(i)) {
					inserted++
				}
			}
			if s.Insert(encOf(1 << 40)) {
				t.Fatal("full set accepted a new state")
			}
			if inserted != s.Size() {
				t.Fatalf("%d inserts reported new, Size() = %d", inserted, s.Size())
			}
			used := s.stats().tableBytes
			if used > budget {
				t.Fatalf("set holds %d bytes, budget %d", used, budget)
			}
			// A stripe saturated: its doubling or its arena's growth by a
			// quarter does not fit the budget.
			saturated := false
			for i := range s.shards {
				sh := &s.shards[i]
				if 16*sh.n > 15*len(sh.slots) {
					t.Fatalf("stripe %d holds %d keys in %d slots, past 15/16", i, sh.n, len(sh.slots))
				}
				slotsFull := 16*sh.n >= 15*len(sh.slots) && used+8*int64(len(sh.slots)) > budget
				c := cap(sh.arena)
				arenaFull := !kind.fp && len(sh.arena)+8 > c && used+int64(c/4+256) > budget
				saturated = saturated || slotsFull || arenaFull
			}
			if !saturated {
				t.Fatalf("declared Full after %d inserts with no stripe saturated (%d of %d bytes held)", inserted, used, budget)
			}
		})
	}
}

// TestSternDillOmission pins the omission bound's shape: zero below two
// states, monotone, vanishing at litmus scale, and within [0,1].
func TestSternDillOmission(t *testing.T) {
	if sternDillOmission(0) != 0 || sternDillOmission(1) != 0 {
		t.Fatal("omission nonzero below 2 states")
	}
	prev := 0.0
	for _, n := range []int64{2, 1 << 10, 1 << 20, 1 << 30, 1 << 40} {
		p := sternDillOmission(n)
		if p <= prev || p > 1 {
			t.Fatalf("omission(%d) = %g not monotone in (0,1] (prev %g)", n, p, prev)
		}
		prev = p
	}
	if p := sternDillOmission(1 << 20); p > 1e-6 {
		t.Fatalf("omission(1M) = %g, expected vanishing", p)
	}
}

// assertAgrees compares every observable of two searches of the same space.
func assertAgrees(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.States != want.States {
		t.Errorf("%s: %d states, exact search found %d", label, got.States, want.States)
	}
	if got.Transitions != want.Transitions {
		t.Errorf("%s: %d transitions, exact search found %d", label, got.Transitions, want.Transitions)
	}
	if got.Deadlocks != want.Deadlocks {
		t.Errorf("%s: %d deadlocks, exact search found %d", label, got.Deadlocks, want.Deadlocks)
	}
	gk, wk := got.Outcomes.Keys(), want.Outcomes.Keys()
	sort.Strings(gk)
	sort.Strings(wk)
	if strings.Join(gk, "\n") != strings.Join(wk, "\n") {
		t.Errorf("%s: outcome sets differ:\ngot:  %v\nwant: %v", label, gk, wk)
	}
	if got.Truncated {
		t.Errorf("%s: unexpectedly truncated", label)
	}
}

// TestStorageModesAgreeLitmus: on MP, SB and IRIW, hash compaction must
// visit exactly the state set of the exact search, sequentially and with
// a worker pool. 64-bit fingerprints make a collision at these state counts
// vanishingly unlikely, so exact agreement is the correct expectation,
// not a lucky one.
func TestStorageModesAgreeLitmus(t *testing.T) {
	workers := runtime.NumCPU()
	if workers < 2 {
		workers = 4
	}
	cases := []struct {
		name string
		prog *memmodel.Program
	}{
		{"MP", mpPlain()},
		{"SB", sb()},
		{"IRIW", iriw()},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			// POR pinned off: this matrix gates the storage engines, so
			// the baselines should keep covering the full unreduced space.
			exact := exploreWith(t, tc.prog, 1, Options{POR: POROff})
			if exact.Storage != "exact" {
				t.Fatalf("baseline storage label = %q", exact.Storage)
			}
			for _, w := range []int{1, workers} {
				res := exploreWith(t, tc.prog, w, Options{POR: POROff, HashCompaction: true})
				assertAgrees(t, fmt.Sprintf("hash workers=%d", w), res, exact)
			}
		})
	}
}

// TestStorageAccountingInResult: a compacted run must report its table
// accounting and omission bound through Result, and its String() must
// print them Murphi-style.
func TestStorageAccountingInResult(t *testing.T) {
	res := exploreWith(t, sb(), 1, Options{Evictions: true, HashCompaction: true})
	if res.Storage != "hash-compaction" {
		t.Fatalf("storage = %q", res.Storage)
	}
	if res.TableBytes <= 0 || res.BytesPerState <= 0 {
		t.Fatalf("accounting missing: table %d bytes, %.1f bytes/state", res.TableBytes, res.BytesPerState)
	}
	if res.OmissionProb <= 0 || res.OmissionProb > 1e-6 {
		t.Fatalf("omission = %g, want small positive", res.OmissionProb)
	}
	if res.PeakLoadFactor <= 0 || res.PeakLoadFactor > 1 {
		t.Fatalf("peak load = %g", res.PeakLoadFactor)
	}
	s := res.String()
	if !strings.Contains(s, "hash-compaction") || !strings.Contains(s, "pr. of omitted states") {
		t.Errorf("summary omits the compaction report: %q", s)
	}
	exact := exploreWith(t, sb(), 1, Options{Evictions: true})
	if strings.Contains(exact.String(), "omitted") {
		t.Errorf("exact summary mentions omission: %q", exact.String())
	}
	if exact.BytesPerState < 8 {
		t.Errorf("exact mode reports %.1f bytes/state — below any plausible encoding", exact.BytesPerState)
	}
}

// TestResultStringTruncationCauses: the summary must name the bound that
// fired — MaxStates vs the storage MemBudget — and label a truncated
// compacted count as the lower bound it is.
func TestResultStringTruncationCauses(t *testing.T) {
	r := Result{States: 10, MaxStates: 100, Truncated: true, Storage: "hash-compaction",
		BytesPerState: 10, OmissionProb: 1e-9}
	s := r.String()
	for _, want := range []string{"MaxStates=100", "lower bound", "hash-compaction", "raise MaxStates"} {
		if !strings.Contains(s, want) {
			t.Errorf("truncated compacted summary %q missing %q", s, want)
		}
	}
	r.BudgetFull = true
	s = r.String()
	for _, want := range []string{"MemBudget", "raise MemBudget"} {
		if !strings.Contains(s, want) {
			t.Errorf("budget-full summary %q missing %q", s, want)
		}
	}
	exact := Result{States: 10, MaxStates: 100, Truncated: true, Storage: "exact"}
	if strings.Contains(exact.String(), "lower bound") {
		t.Errorf("exact truncation wrongly labeled a lower bound: %q", exact.String())
	}
}

// TestExploreBudgetTruncation: a compacted Explore whose visited set hits its
// MemBudget must stop, flag BudgetFull, and report fewer states than the
// space holds — end-to-end through the search loop, not just the table.
// IRIW with evictions reaches ~1.6M states; a 512 KiB budget (64Ki slots
// at most, fewer once the frontier's queued keys take their share) cuts
// the search off after a few percent of the space.
func TestExploreBudgetTruncation(t *testing.T) {
	const (
		fullSpace   = 1_600_000 // known size of the IRIW eviction space
		budget      = 512 << 10
		budgetSlots = budget / 8
	)
	check := func(label string, res *Result) {
		t.Helper()
		if !res.Truncated || !res.BudgetFull {
			t.Fatalf("%s: budget-capped search not truncated (Truncated=%t BudgetFull=%t, %d states)",
				label, res.Truncated, res.BudgetFull, res.States)
		}
		// Expanded states lag the visited set (the frontier holds states
		// already claimed but not yet expanded, and its keys share the
		// budget with the table), so only bracket loosely: well past
		// trivial, well short of the full space, with the table holding
		// a fair share of the budget and never more than all of it.
		if res.States < budgetSlots/16 || res.States > fullSpace/4 {
			t.Fatalf("%s: truncated at %d states, expected table saturation below %d",
				label, res.States, budgetSlots)
		}
		if res.TableBytes < budget/4 || res.TableBytes > budget {
			t.Fatalf("%s: table holds %d bytes at truncation, want a fair share of the %d-byte budget",
				label, res.TableBytes, budget)
		}
		if res.Ok() {
			t.Fatalf("%s: truncated result reported Ok", label)
		}
		if !strings.Contains(res.String(), "MemBudget") {
			t.Fatalf("%s: summary does not blame the memory budget: %q", label, res)
		}
	}
	opts := Options{Evictions: true, HashCompaction: true, MemBudget: budget}
	check("sequential", exploreWith(t, iriw(), 1, opts))
	check("parallel", exploreWith(t, iriw(), 8, opts))
}

// TestProgressReports: the ticker must deliver monotone reports with live
// counters while the search runs, and stop cleanly with it.
func TestProgressReports(t *testing.T) {
	var mu sync.Mutex
	var reports []Progress
	opts := Options{
		Evictions:     true,
		ProgressEvery: time.Millisecond,
		OnProgress: func(p Progress) {
			mu.Lock()
			reports = append(reports, p)
			mu.Unlock()
		},
	}
	exploreWith(t, sb(), runtime.NumCPU(), opts)
	mu.Lock()
	defer mu.Unlock()
	if len(reports) == 0 {
		t.Skip("search finished inside one progress tick")
	}
	last := reports[len(reports)-1]
	if last.Visited <= 0 {
		t.Fatalf("final report shows %d visited states", last.Visited)
	}
	for i := 1; i < len(reports); i++ {
		if reports[i].Visited < reports[i-1].Visited {
			t.Fatalf("visited count went backwards: %d then %d", reports[i-1].Visited, reports[i].Visited)
		}
		if reports[i].Elapsed <= reports[i-1].Elapsed {
			t.Fatalf("elapsed not monotone at report %d", i)
		}
	}
}
