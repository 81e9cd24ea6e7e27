package mcheck

import (
	"bytes"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the visited-state storage engine. A search state
// reaches it as its key: the uvarint bytes of its numbered vector
// (number.go).
//
//   - exactSet: the default. Every key is stored exactly, in a
//     mutex-striped open-addressing table over pointer-free arenas.
//   - fpSet: a lock-free open-addressing table of 64-bit state fingerprints
//     (Stern & Dill's hash compaction) — CAS-based linear-probe inserts,
//     power-of-two capacity doubling under a stop-the-world rendezvous with
//     the worker pool, ~8–10 bytes per state with no shard mutexes on the
//     hot path. It is lossy: two distinct states may collide, silently
//     omitting part of the state space, so storageStats carries the
//     standard omission-probability estimate and results report how much
//     to trust a "no deadlock" verdict, the way Murphi prints it.

// storageStats is the accounting snapshot a visited set reports at the end
// of a search.
type storageStats struct {
	mode       string  // "exact" or "hash-compaction"
	tableBytes int64   // memory held by the visited structure
	loadFactor float64 // final table occupancy
	peakLoad   float64 // highest observed occupancy
	omission   float64 // probability at least one state was omitted
}

// inserter is one worker's insertion handle into a visited set. Handles are
// not safe for concurrent use by multiple goroutines; each worker owns one.
type inserter interface {
	// Insert adds the state key and reports whether it was new.
	Insert(key []byte) bool
	// Begin and End bracket one expansion's run of Inserts: the
	// fingerprint table holds its growth-rendezvous flag open for the
	// window, and the exact set ignores them. An Insert outside any
	// window behaves as a window of one.
	Begin()
	End()
}

// visitedSet is the visited-state store shared by search workers.
type visitedSet interface {
	// handle returns worker w's insertion handle (w < the worker count the
	// set was created for).
	handle(w int) inserter
	// Size returns the number of distinct states inserted so far.
	Size() int
	// Full reports whether the store hit its memory budget and can no
	// longer accept states (the search must truncate).
	Full() bool
	// load returns the current occupancy in [0,1] (cheap; progress ticker).
	load() float64
	// stats returns the end-of-search accounting snapshot.
	stats() storageStats
	// release returns every byte the set acquired from a shared MemPool
	// (a no-op for unpooled sets); called once when the search ends.
	release()
}

// newVisited builds the visited set for the configured storage mode.
func newVisited(opts Options, workers int) visitedSet {
	if opts.HashCompaction {
		return newFPSet(opts.MemBudget, workers, opts.MemPool)
	}
	return newExactSet(workers)
}

// sternDillOmission is the standard hash-compaction omission-probability
// bound for n states and 64-bit fingerprints: the chance that at least one
// state's fingerprint collided with another's, P ≈ 1 - exp(-n(n-1)/2^65)
// (Stern & Dill; Murphi prints the same estimate after compacted runs).
func sternDillOmission(n int64) float64 {
	if n < 2 {
		return 0
	}
	x := float64(n) * float64(n-1) / math.Exp2(65)
	return -math.Expm1(-x)
}

// ---------------------------------------------------------------------------
// Exact mode: the set of state keys.
//
// A key is a few-byte vector of numbers — the MESI&RCC-O extraction's
// keys average about 14 bytes — so the set stores it bare, behind one
// 8-byte slot.

// visitedShards is the stripe count of the table. 64 stripes keep lock
// contention negligible for any worker count the search runs with.
const visitedShards = 64

// vecInitSlots is a stripe's initial slot count: a stripe starts small
// and doubles at 3/4 load, so a few-thousand-state search holds tens of
// KiB, not a fixed megabyte.
const vecInitSlots = 16

// stripe is one mutex-striped stripe of the table: a power-of-two
// open-addressing table over a pointer-free byte arena, which the garbage
// collector never scans. A slot packs the key's hash tag (the hash's high
// 32 bits, which also pick the probe start, so growth rehashes from the
// slots alone) above its arena offset plus one; 0 marks an empty slot. A
// key is self-delimiting (a fixed count of uvarints, then a channel count
// and that many pairs; vec.appendKey), so no key is a proper prefix of
// another and a key is stored bare.
type stripe struct {
	mu    sync.Mutex
	slots []uint64
	n     int
	arena []byte
	_     [64]byte // keep stripes off each other's cache lines
}

// exactSet stores every visited key exactly. Its stripes lock only when
// more than one worker shares it: a one-worker search has nothing to
// exclude.
type exactSet struct {
	size   atomic.Int64
	shared bool
	shards [visitedShards]stripe
}

// exactHandle is one worker's insertion handle.
type exactHandle struct{ v *exactSet }

// newExactSet builds an exact set for workers workers.
func newExactSet(workers int) *exactSet { return &exactSet{shared: workers > 1} }

// errArenaFull is the panic of a stripe whose arena would pass 4 GiB:
// hundreds of millions of states in ONE stripe, far beyond any
// configuration this checker hosts.
const errArenaFull = "mcheck: exact-set stripe arena exceeds 4 GiB"

// regrow rehashes a full slot table into one twice its size: a slot's tag
// picks its probe start, so the arena is not read.
func regrow(old []uint64) []uint64 {
	slots := make([]uint64, 2*len(old))
	mask := uint32(len(slots) - 1)
	for _, sl := range old {
		if sl == 0 {
			continue
		}
		j := uint32(sl>>32) & mask
		for slots[j] != 0 {
			j = (j + 1) & mask
		}
		slots[j] = sl
	}
	return slots
}

// insertVec adds a key and reports whether it was new.
func (v *exactSet) insertVec(vec []byte) bool {
	h := stateHash(vec)
	s := &v.shards[h%visitedShards]
	if v.shared {
		s.mu.Lock()
	}
	isNew, ok := s.insert(vec, uint32(h>>32))
	if v.shared {
		s.mu.Unlock()
	}
	if !ok {
		panic(errArenaFull)
	}
	if isNew {
		v.size.Add(1)
	}
	return isNew
}

// insert adds vec, whose hash tag is tag, unless the shard holds it; ok
// is false when the arena is full.
func (s *stripe) insert(vec []byte, tag uint32) (isNew, ok bool) {
	if s.slots == nil {
		s.slots = make([]uint64, vecInitSlots)
	}
	mask := uint32(len(s.slots) - 1)
	i := tag & mask
	for ; s.slots[i] != 0; i = (i + 1) & mask {
		sl := s.slots[i]
		// Stored keys and vec are self-delimiting: if the arena's bytes
		// at the offset start with vec, the key stored there is vec (a
		// shorter one would be a proper prefix of vec, a longer one
		// would have vec as one).
		if off := int(uint32(sl)) - 1; uint32(sl>>32) == tag &&
			off+len(vec) <= len(s.arena) && bytes.Equal(s.arena[off:off+len(vec)], vec) {
			return false, true
		}
	}
	off := len(s.arena)
	if off+len(vec)+1 >= math.MaxUint32 {
		return false, false
	}
	s.arena = append(s.arena, vec...)
	s.slots[i] = uint64(tag)<<32 | uint64(off+1)
	if s.n++; 4*s.n >= 3*len(s.slots) {
		s.slots = regrow(s.slots)
	}
	return true, true
}

// Insert implements inserter.
func (h exactHandle) Insert(key []byte) bool { return h.v.insertVec(key) }

// Begin and End implement inserter: the exact set has no windows.
func (exactHandle) Begin() {}
func (exactHandle) End()   {}

func (v *exactSet) handle(int) inserter { return exactHandle{v} }
func (v *exactSet) Size() int           { return int(v.size.Load()) }
func (v *exactSet) Full() bool          { return false }
func (v *exactSet) load() float64       { return 0 }
func (v *exactSet) release()            {} // exact mode is unpooled (see MemPool)

// stats counts the table's slots and arenas, at capacity.
func (v *exactSet) stats() storageStats {
	var b int64
	for i := range v.shards {
		s := &v.shards[i]
		s.mu.Lock()
		b += int64(len(s.slots))*8 + int64(cap(s.arena))
		s.mu.Unlock()
	}
	return storageStats{mode: "exact", tableBytes: b}
}

// ---------------------------------------------------------------------------
// Hash compaction: the lock-free fingerprint table.

const (
	// fpInitialSlots is the starting capacity (power of two).
	fpInitialSlots = 1 << 16
	// fpGrowLoad is the load factor that triggers capacity doubling.
	fpGrowLoad = 0.75
	// fpFullLoad is the load factor beyond which a table that can no
	// longer grow (memory budget) declares itself full: linear probing
	// degrades sharply past it.
	fpFullLoad = 0.9375
	// fpMaxProbe bounds an insert's probe run; a failure forces growth
	// (or fullness at the budget cap). Far beyond any plausible cluster
	// length at fpFullLoad occupancy.
	fpMaxProbe = 4096
	// fpDefaultMaxBytes caps table growth when no MemBudget is given:
	// effectively unbounded (MaxStates fires long before 8 GiB of
	// fingerprints — a billion states).
	fpDefaultMaxBytes = 8 << 30
)

// fpSlots is one immutable-capacity generation of the table. Slot value 0
// means empty; fingerprint 0 is remapped to 1 on insert (a benign extra
// collision in a 2^64 space).
type fpSlots struct {
	mask   uint64 // len(slots)-1
	growAt int64  // count that triggers doubling
	slots  []uint64
}

func newFPSlots(n int) *fpSlots {
	return &fpSlots{
		mask:   uint64(n - 1),
		growAt: int64(float64(n) * fpGrowLoad),
		slots:  make([]uint64, n),
	}
}

// insert CAS-inserts fingerprint fp. isNew reports first insertion; ok is
// false when the probe bound was exhausted (caller must grow or give up).
func (t *fpSlots) insert(fp uint64) (isNew, ok bool) {
	i := fp & t.mask
	for probe := 0; probe < fpMaxProbe; probe++ {
		v := atomic.LoadUint64(&t.slots[i])
		if v == fp {
			return false, true
		}
		if v == 0 {
			if atomic.CompareAndSwapUint64(&t.slots[i], 0, fp) {
				return true, true
			}
			// Lost the race for this slot: re-read it (the winner may have
			// written our fingerprint) without advancing the probe.
			i--
		}
		i = (i + 1) & t.mask
	}
	return false, false
}

// insertFresh inserts during a rehash: single-threaded, table large enough
// by construction.
func (t *fpSlots) insertFresh(fp uint64) {
	i := fp & t.mask
	for t.slots[i] != 0 {
		i = (i + 1) & t.mask
	}
	t.slots[i] = fp
}

// fpHandle is one worker's insertion handle. Its padded inflight flag is
// how the grower rendezvouses with the worker pool: a worker raises it
// before reading the table pointer and lowers it after its CAS completes,
// so once the grower has flipped seq to odd and observed every handle at
// zero, no insert can be in flight against the old generation.
//
// Begin/End open a batched window: the flag is raised once and held across
// every Insert of one expansion instead of being raised and lowered per
// probe, halving the rendezvous stores on the hot path. The safety argument
// is unchanged — a grower cannot pass its drain wait while the flag is up,
// so every windowed insert lands in the old generation and is rehashed.
// Growth is delayed by at most the remainder of one expansion: an Insert
// that observes seq odd mid-window stands down (drops the flag, waits,
// re-raises against the new table), and a windowed Insert that must grow
// itself drops the flag around the grow call — the grower drains every
// handle, its own caller's included.
type fpHandle struct {
	s        *fpSet
	inflight atomic.Int64
	batched  bool     // owner-only: a Begin/End window is open
	_        [40]byte // pad handles apart: each is written by one worker
}

// Begin implements inserter by opening a batched probe window.
func (h *fpHandle) Begin() { h.batched = true; h.raise() }

// End implements inserter by closing the window.
func (h *fpHandle) End() { h.batched = false; h.inflight.Store(0) }

// raise publishes the inflight flag, waiting out any growth in progress: on
// return the flag is up and seq was observed even after it went up — the
// precondition the growth rendezvous relies on.
func (h *fpHandle) raise() {
	for {
		h.inflight.Store(1)
		if h.s.seq.Load()&1 == 0 {
			return
		}
		h.inflight.Store(0)
		for h.s.seq.Load()&1 != 0 {
			runtime.Gosched()
		}
	}
}

// pause drops a batched window's flag (before a grow call); resume re-arms
// it. Both no-op outside a window, where Insert manages the flag per probe.
func (h *fpHandle) pause() {
	if h.batched {
		h.inflight.Store(0)
	}
}

func (h *fpHandle) resume() {
	if h.batched {
		h.raise()
	}
}

// fpSet is the lock-free fingerprint table (hash-compaction mode).
//
// Insert protocol (per worker handle):
//
//	raise inflight → check seq even (else lower and back off) → load
//	table pointer → CAS-probe insert → lower inflight
//
// Growth protocol (any inserter that trips the load threshold; growMu
// serializes growers):
//
//	seq ++ (odd: new inserts back off) → wait for every handle's
//	inflight to drain → rehash into a ×2 table → swap pointer → seq ++
//
// Go's atomics are sequentially consistent, which makes the rendezvous
// airtight: an inserter that saw seq even after raising its flag is, in
// the total order, before the grower's flip — so the grower's drain wait
// cannot pass until that insert lands in the old table, and the rehash
// copies it. Every state is therefore claimed exactly once, which is what
// keeps compacted counts equal to exact counts (no lost or double-expanded
// states).
type fpSet struct {
	cur     atomic.Pointer[fpSlots]
	count   atomic.Int64
	seq     atomic.Uint64 // even: stable; odd: growth in progress
	full    atomic.Bool
	growMu  sync.Mutex
	maxLen  int      // slot-count cap from the memory budget
	peak    float64  // highest pre-growth load factor; guarded by growMu
	pool    *MemPool // shared accountant (nil = private budget only)
	pooled  int64    // bytes currently acquired from pool; guarded by growMu
	handles []fpHandle
}

func newFPSet(memBudget int64, workers int, pool *MemPool) *fpSet {
	maxBytes := memBudget
	if maxBytes <= 0 {
		maxBytes = fpDefaultMaxBytes
	}
	maxLen := fpInitialSlots
	for int64(maxLen)*2*8 <= maxBytes {
		maxLen *= 2
	}
	s := &fpSet{maxLen: maxLen, pool: pool, handles: make([]fpHandle, workers)}
	for i := range s.handles {
		s.handles[i].s = s
	}
	n := fpInitialSlots
	if n > maxLen {
		n = maxLen
	}
	// The initial table is small (512 KiB); if even that does not fit in a
	// shared pool, start anyway — the first growth will be denied and the
	// search truncates with BudgetFull rather than failing to start.
	if pool.Acquire(int64(n) * 8) {
		s.pooled = int64(n) * 8
	}
	s.cur.Store(newFPSlots(n))
	return s
}

// release implements visitedSet: hand the acquired bytes back to the pool.
func (s *fpSet) release() {
	s.growMu.Lock()
	s.pool.Release(s.pooled)
	s.pooled = 0
	s.growMu.Unlock()
}

func (s *fpSet) handle(w int) inserter { return &s.handles[w] }
func (s *fpSet) Size() int             { return int(s.count.Load()) }
func (s *fpSet) Full() bool            { return s.full.Load() }

func (s *fpSet) load() float64 {
	t := s.cur.Load()
	return float64(s.count.Load()) / float64(len(t.slots))
}

func (s *fpSet) stats() storageStats {
	s.growMu.Lock()
	peak := s.peak
	s.growMu.Unlock()
	t := s.cur.Load()
	lf := s.load()
	if lf > peak {
		peak = lf
	}
	return storageStats{
		mode:       "hash-compaction",
		tableBytes: int64(len(t.slots)) * 8,
		loadFactor: lf,
		peakLoad:   peak,
		omission:   sternDillOmission(s.count.Load()),
	}
}

// Insert implements inserter; h is owned by a single worker.
func (h *fpHandle) Insert(enc []byte) bool {
	s := h.s
	if s.full.Load() {
		// At the budget cap and effectively saturated: drop the state. The
		// search observes Full() and truncates.
		return false
	}
	fp := stateHash(enc)
	if fp == 0 {
		fp = 1 // 0 is the empty-slot sentinel
	}
	for {
		if !h.batched {
			h.raise()
		} else if s.seq.Load()&1 != 0 {
			// A grower is waiting on this handle: stand down so it can run,
			// then re-arm the window against the new generation.
			h.inflight.Store(0)
			for s.seq.Load()&1 != 0 {
				runtime.Gosched()
			}
			h.raise()
		}
		t := s.cur.Load()
		isNew, ok := t.insert(fp)
		if !h.batched {
			h.inflight.Store(0)
		}
		if !ok {
			h.pause()
			s.grow(t, true)
			h.resume()
			if s.full.Load() {
				return false
			}
			continue
		}
		if isNew && s.count.Add(1) >= t.growAt {
			h.pause()
			s.grow(t, false)
			h.resume()
		}
		return isNew
	}
}

// grow doubles the table (stop-the-world rendezvous; see the type comment).
// probeFailed marks a caller whose insert could not find a slot: if the
// budget forbids growing further, the table is declared full.
func (s *fpSet) grow(old *fpSlots, probeFailed bool) {
	s.growMu.Lock()
	defer s.growMu.Unlock()
	cur := s.cur.Load()
	if cur != old {
		return // another worker already grew past this generation
	}
	if lf := float64(s.count.Load()) / float64(len(cur.slots)); lf > s.peak {
		s.peak = lf
	}
	if len(cur.slots) >= s.maxLen {
		if probeFailed || s.load() >= fpFullLoad {
			s.full.Store(true)
		}
		return
	}
	// Under a shared pool the doubled generation must fit in the global
	// accountant too: a denial is exactly the budget-cap case above — the
	// memory exists, other searches hold it.
	newBytes := int64(len(cur.slots)) * 2 * 8
	if !s.pool.Acquire(newBytes) {
		if probeFailed || s.load() >= fpFullLoad {
			s.full.Store(true)
		}
		return
	}
	s.seq.Add(1) // odd: fresh inserts back off
	for i := range s.handles {
		h := &s.handles[i]
		for h.inflight.Load() != 0 {
			runtime.Gosched()
		}
	}
	next := newFPSlots(len(cur.slots) * 2)
	for _, fp := range cur.slots {
		if fp != 0 {
			next.insertFresh(fp)
		}
	}
	s.cur.Store(next)
	s.seq.Add(1) // even: table stable again
	// The old generation is garbage now; return its bytes to the pool.
	oldBytes := int64(len(cur.slots)) * 8
	if s.pooled >= oldBytes {
		s.pool.Release(oldBytes)
		s.pooled -= oldBytes
	}
	s.pooled += newBytes
}
