package mcheck

// Tests for the state-storage engine (storage.go, spill.go, decode.go):
// the collapse-compressed exact set against a reference model,
// fingerprint-table semantics under concurrency and growth, spill-queue
// FIFO discipline, and agreement of every storage mode with the exact
// search on the litmus configurations. The
// fused-pair agreement matrix lives in storage_pairs_test.go and the
// state-image round trip in encode_test.go (external package; they need
// core.Fuse).

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
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

// TestFPSetInsertSemantics: first insert of a fingerprint is new, repeats
// are not, and the count survives growth (190k inserts force two capacity
// doublings from the 64Ki initial table).
func TestFPSetInsertSemantics(t *testing.T) {
	const n = 190_000
	s := newFPSet(0, 1, nil)
	ins := s.handle(0)
	for i := 0; i < n; i++ {
		if !ins.Insert(encOf(i), nil, 0) {
			t.Fatalf("insert %d: not reported new", i)
		}
	}
	for i := 0; i < n; i += 97 {
		if ins.Insert(encOf(i), nil, 0) {
			t.Fatalf("re-insert %d: reported new", i)
		}
	}
	if s.Size() != n {
		t.Fatalf("Size() = %d, want %d", s.Size(), n)
	}
	if s.Full() {
		t.Fatal("unbudgeted table reported Full")
	}
	st := s.stats()
	if st.mode != "hash-compaction" {
		t.Fatalf("mode = %q", st.mode)
	}
	if st.omission <= 0 || st.omission > 1e-6 {
		t.Fatalf("omission = %g, want small positive", st.omission)
	}
}

// TestBytesPerStateRegression is the storage counterpart of the allocation
// guard. The fingerprint table must stay a flat 8 bytes per slot, growing
// at 0.75 load — at 190k states that lands on a 256Ki-slot table,
// ~11 bytes/state. The exact set must keep its collapse compression: on
// the release/acquire MP search with evictions it stores each state as a
// few-byte ID vector behind an 8-byte slot, measured at 39.5 bytes/state
// with its intern tables (a search this small is dominated by the
// channel blocks it interns). A slot-size, load-factor or interning
// regression trips this.
func TestBytesPerStateRegression(t *testing.T) {
	t.Run("hash-compaction", func(t *testing.T) {
		const n = 190_000
		s := newFPSet(0, 1, nil)
		ins := s.handle(0)
		for i := 0; i < n; i++ {
			ins.Insert(encOf(i), nil, 0)
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
		if st.peakLoad < fpGrowLoad-0.01 {
			t.Fatalf("peak load %.3f never reached the %.2f growth threshold", st.peakLoad, fpGrowLoad)
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

// TestFPSetExactlyOnceUnderContention: every worker races to insert the
// same stream of states, across several table growths. Each state must be
// claimed new by exactly one worker — the property that keeps compacted
// state counts equal to exact counts. Run under -race this also exercises
// the stop-the-world growth rendezvous.
func TestFPSetExactlyOnceUnderContention(t *testing.T) {
	const n = 200_000
	workers := runtime.NumCPU()
	if workers < 4 {
		workers = 4
	}
	s := newFPSet(0, workers, nil)
	claimed := make([]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		ins := s.handle(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var enc [8]byte
			for i := 0; i < n; i++ {
				binary.LittleEndian.PutUint64(enc[:], uint64(i))
				if ins.Insert(enc[:], nil, 0) {
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
}

// TestExactSetExactlyOnceUnderContention: like the fingerprint table, the
// exact set must claim each state new exactly once when workers race on
// the same stream, with every worker interning the same segments
// concurrently — otherwise a state is expanded twice and parallel counts
// drift from sequential. Run under -race this also exercises the stripe
// locks of the vector and intern tables.
func TestExactSetExactlyOnceUnderContention(t *testing.T) {
	const n = 100_000
	workers := runtime.NumCPU()
	if workers < 4 {
		workers = 4
	}
	s := newExactSet(workers, 3)
	claimed := make([]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		ins := s.handle(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var enc []byte
			var ends []int
			for i := 0; i < n; i++ {
				enc, ends = segKey(enc[:0], ends[:0], i%97, i/97%211, i/(97*211))
				if ins.Insert(enc, ends, 0) {
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
	for p, want := range []uint32{97, 211, n/(97*211) + 1} {
		if got := s.segs[p].next.Load(); got != want {
			t.Errorf("position %d interned %d segments, want %d", p, got, want)
		}
	}
}

// segKey appends a key whose segments encode the given values, one per
// position, with lengths that vary with the value.
func segKey(enc []byte, ends []int, vals ...int) ([]byte, []int) {
	for _, v := range vals {
		enc = binary.AppendUvarint(enc, uint64(v))
		enc = append(enc, bytes.Repeat([]byte{'s'}, v%5)...)
		ends = append(ends, len(enc))
	}
	return enc, ends
}

// TestExactSetMatchesReference: random keys inserted into the exact set,
// inside and outside parent windows, must be reported new exactly when a
// map of whole keys (bytes plus segment ends) has not seen them. The keys
// cover an empty channel-block segment, equal bytes at different
// positions, and one position with over 16,384 distinct segments, so
// vector IDs cross the one- and two-byte uvarint widths.
func TestExactSetMatchesReference(t *testing.T) {
	const segments = 6 // three components, then memory, channel block (4) and cores
	rng := rand.New(rand.NewPCG(1, 2))
	s := newExactSet(1, segments)
	ins := s.handle(0)
	ref := map[string]struct{}{}
	pick := func(p int) []byte {
		switch p {
		case 1: // wide: drives IDs past 16,383
			return binary.AppendUvarint([]byte{1}, rng.Uint64N(40_000))
		case 4: // the channel block: empty a third of the time
			if rng.IntN(3) == 0 {
				return nil
			}
			return bytes.Repeat([]byte{byte(rng.IntN(4))}, 1+rng.IntN(6))
		default: // small alphabets, shared across positions
			return []byte{byte(rng.IntN(5)), 7}
		}
	}
	var parent, enc []byte
	var pends, ends []int
	var copied uint64
	check := func(i int) {
		t.Helper()
		key := fmt.Sprint(ends) + string(enc)
		_, seen := ref[key]
		ref[key] = struct{}{}
		if got := ins.Insert(enc, ends, copied); got == seen {
			t.Fatalf("insert %d (%q, ends %v): reported new=%t, reference has seen=%t", i, enc, ends, got, seen)
		}
	}
	for i := 0; i < 120_000; i++ {
		enc, ends, copied = enc[:0], ends[:0], 0
		for p := 0; p < segments; p++ {
			var seg []byte
			if parent != nil && rng.IntN(2) == 0 {
				// Keep the parent's segment, as a move that left the
				// position alone would; mark some of the copies so both
				// the marked and the compared path run.
				start := 0
				if p > 0 {
					start = pends[p-1]
				}
				seg = parent[start:pends[p]]
				if rng.IntN(2) == 0 {
					copied |= 1 << p
				}
			} else {
				seg = pick(p)
			}
			enc = append(enc, seg...)
			ends = append(ends, len(enc))
		}
		check(i)
		switch {
		case i%7 == 0:
			// Open a window on this key, as an expansion of it would.
			ins.End()
			parent, pends = bytes.Clone(enc), slices.Clone(ends)
			ins.Begin(parent, pends, bytes.Clone(ins.IDs()))
		case i%11 == 0:
			ins.End()
			parent, pends = nil, nil
		}
	}
	ins.End()
	if s.Size() != len(ref) {
		t.Fatalf("Size() = %d, reference holds %d keys", s.Size(), len(ref))
	}
	if n := s.segs[1].next.Load(); n <= 1<<14 {
		t.Fatalf("position 1 interned only %d segments, too few to reach three-byte IDs", n)
	}
	// Equal bytes at different positions are interned per position: the
	// small alphabets' IDs are dense from 0 at each position.
	for _, p := range []int{0, 2, 3, 5} {
		if n := s.segs[p].next.Load(); n != 5 {
			t.Errorf("position %d interned %d segments, want its alphabet of 5", p, n)
		}
	}
	if st := s.stats(); st.mode != "exact" || st.tableBytes <= 0 {
		t.Fatalf("stats: mode %q, %d table bytes", st.mode, st.tableBytes)
	}
}

// TestExactSetSmallSearchFloor: the exact set's tables start small and
// grow, so the 3,614-state deadlock check of two MSI caches on one
// address (hgcheck's driver: store, load, release, acquire per core)
// holds 110 KiB, not a megabyte of preallocated stripes.
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

// TestFPSetBudgetTruncation: a table pinned at its minimum capacity by a
// tiny MemBudget must declare itself Full near the saturation load and
// reject further states instead of thrashing.
func TestFPSetBudgetTruncation(t *testing.T) {
	s := newFPSet(1, 1, nil) // floor capacity: fpInitialSlots
	ins := s.handle(0)
	inserted := 0
	for i := 0; i < 2*fpInitialSlots && !s.Full(); i++ {
		if ins.Insert(encOf(i), nil, 0) {
			inserted++
		}
	}
	if !s.Full() {
		t.Fatalf("table never filled after %d inserts into %d slots", inserted, fpInitialSlots)
	}
	if ins.Insert(encOf(1<<40), nil, 0) {
		t.Fatal("full table accepted a new state")
	}
	if lo := int(fpFullLoad*fpInitialSlots) - 1; inserted < lo {
		t.Fatalf("declared full after only %d inserts, saturation is ~%d", inserted, lo)
	}
	if inserted > fpInitialSlots {
		t.Fatalf("inserted %d states into %d slots", inserted, fpInitialSlots)
	}
	st := s.stats()
	if st.peakLoad < fpFullLoad-0.01 {
		t.Fatalf("peak load %.3f below the declared-full threshold", st.peakLoad)
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

// TestSpillQueueFIFO: the disk-backed queue must be exactly FIFO through
// wave flush/reload cycles, report an exact length, and leave no files
// behind on close.
func TestSpillQueueFIFO(t *testing.T) {
	dir := t.TempDir()
	q, err := newSpillQueue(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	payload := func(i int) []byte { return []byte(fmt.Sprintf("state-%04d-%s", i, strings.Repeat("x", i%17))) }
	next := 0
	// Interleave pushes and pops so head, tail and wave files all carry
	// entries at some point.
	for i := 0; i < n; i++ {
		q.push(payload(i))
		if i%3 == 2 {
			enc, ok := q.pop()
			if !ok {
				t.Fatalf("pop %d: queue empty with %d queued", next, q.len())
			}
			if !bytes.Equal(enc, payload(next)) {
				t.Fatalf("pop %d: got %q, want %q", next, enc, payload(next))
			}
			next++
		}
	}
	if got, want := q.len(), n-next; got != want {
		t.Fatalf("len() = %d, want %d", got, want)
	}
	if q.spilledStates.Load() == 0 {
		t.Fatal("ring of 8 never spilled a wave to disk")
	}
	for ; next < n; next++ {
		enc, ok := q.pop()
		if !ok {
			t.Fatalf("pop %d: queue dry early", next)
		}
		if !bytes.Equal(enc, payload(next)) {
			t.Fatalf("pop %d: got %q, want %q", next, enc, payload(next))
		}
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop succeeded on a drained queue")
	}
	spillDir := q.dir
	q.close()
	if _, err := os.Stat(spillDir); !os.IsNotExist(err) {
		t.Fatalf("close left the spill directory behind: %v", err)
	}
	left, _ := filepath.Glob(filepath.Join(dir, "hgspill-*"))
	if len(left) != 0 {
		t.Fatalf("close left %v", left)
	}
}

// storageModes enumerates the non-exact storage configurations the
// agreement matrix checks against the exact baseline.
func storageModes(spillDir string) []struct {
	name string
	set  func(*Options)
} {
	return []struct {
		name string
		set  func(*Options)
	}{
		{"hash", func(o *Options) { o.HashCompaction = true }},
		{"exact+spill", func(o *Options) { o.SpillDir = spillDir; o.spillRing = 64 }},
		{"hash+spill", func(o *Options) {
			o.HashCompaction = true
			o.SpillDir = spillDir
			o.spillRing = 64
		}},
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

// TestStorageModesAgreeLitmus: on MP, SB and IRIW, every storage mode —
// hash compaction, and both it and exact storage with the disk-spilling
// frontier (ring forced down to 64 so waves really hit disk) — must visit
// exactly the state set of the exact search, sequentially and with a
// worker pool. 64-bit fingerprints make a collision at these state counts
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
			for _, mode := range storageModes(t.TempDir()) {
				for _, w := range []int{1, workers} {
					opts := Options{POR: POROff}
					mode.set(&opts)
					res := exploreWith(t, tc.prog, w, opts)
					assertAgrees(t, fmt.Sprintf("%s workers=%d", mode.name, w), res, exact)
					if strings.Contains(mode.name, "spill") {
						if !strings.HasSuffix(res.Storage, "+spill") {
							t.Errorf("%s workers=%d: storage label %q lost the spill marker", mode.name, w, res.Storage)
						}
						if res.SpilledStates == 0 && res.States > 200 {
							t.Errorf("%s workers=%d: ring of 64 never spilled (%d states)", mode.name, w, res.States)
						}
					}
				}
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

// TestExploreBudgetTruncation: an Explore whose fingerprint table hits its
// MemBudget must stop, flag BudgetFull, and report fewer states than the
// space holds — end-to-end through the search loop, not just the table.
// IRIW with evictions reaches ~1.6M states; a minimum-capacity table
// (64Ki slots, ~61k usable at the saturation load) cuts the search off
// after a few percent of the space.
func TestExploreBudgetTruncation(t *testing.T) {
	const fullSpace = 1_600_000 // known size of the IRIW eviction space
	check := func(label string, res *Result) {
		t.Helper()
		if !res.Truncated || !res.BudgetFull {
			t.Fatalf("%s: budget-capped search not truncated (Truncated=%t BudgetFull=%t, %d states)",
				label, res.Truncated, res.BudgetFull, res.States)
		}
		// Expanded states lag the visited set (the frontier holds states
		// already claimed but not yet expanded), so only bracket loosely:
		// well past trivial, well short of the full space.
		if res.States < fpInitialSlots/4 || res.States > fullSpace/4 {
			t.Fatalf("%s: truncated at %d states, expected table saturation near %d",
				label, res.States, int(fpFullLoad*fpInitialSlots))
		}
		if res.Ok() {
			t.Fatalf("%s: truncated result reported Ok", label)
		}
		if !strings.Contains(res.String(), "MemBudget") {
			t.Fatalf("%s: summary does not blame the memory budget: %q", label, res)
		}
	}
	opts := Options{Evictions: true, HashCompaction: true, MemBudget: 1}
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
