package mcheck

import (
	"bytes"
	"math"
	"sync"
	"sync/atomic"
)

// This file implements the visited-state store. A search state reaches it
// as its key: the uvarint bytes of its numbered vector (number.go).
//
// The store is one table of mutex-striped open-addressing stripes, with
// two kinds of key:
//
//   - exact, the default: a slot holds the key's hash tag and the offset
//     of the key's bytes in the stripe's pointer-free arena, and a hit
//     compares the bytes.
//   - hash compaction (Options.HashCompaction): a slot holds the key's
//     64-bit fingerprint, Stern & Dill's technique, and no arena is
//     written. It is lossy: two distinct states may share a fingerprint,
//     silently omitting part of the state space, so storageStats carries
//     the standard omission-probability estimate and results report how
//     much to trust a "no deadlock" verdict, the way Murphi prints it.
//
// Every slot doubling and arena growth is charged to the search's memory
// budget: Options.MemBudget, and Options.MemPool when one is set. The
// budget counts the bytes the set holds: the old slots or arena a growing
// stripe copies from are garbage once copied, and are not charged. A
// denied growth leaves the stripe at its size; once a stripe is 15/16
// occupied, or an arena cannot take a key, the set is Full and the search
// truncates with BudgetFull. The frontier's queued keys and the
// numbering's table entries are charged to the same budget (hold), so it
// bounds the whole search's state memory; they are kept out of the set's
// own accounting.

// storageStats is the accounting snapshot a visited set reports at the end
// of a search.
type storageStats struct {
	mode       string  // "exact" or "hash-compaction"
	tableBytes int64   // memory held by the visited structure
	peakLoad   float64 // highest observed occupancy
	omission   float64 // probability at least one state was omitted
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

const (
	// visitedShards is the stripe count of the table. 64 stripes keep
	// lock contention negligible for any worker count the search runs
	// with.
	visitedShards = 64
	// vecInitSlots is a stripe's initial slot count: a stripe starts
	// small and doubles at 3/4 load, so a few-thousand-state search holds
	// tens of KiB, not a fixed megabyte.
	vecInitSlots = 16
	// defaultMemBudget is the memory budget when Options.MemBudget is 0:
	// effectively unbounded (MaxStates fires long before 8 GiB of visited
	// set).
	defaultMemBudget = 8 << 30
)

// stripe is one stripe of the table: a power-of-two open-addressing table
// whose probe starts at the key hash's high 32 bits, which every slot
// keeps in its own high 32 bits, so growth rehashes from the slots alone.
// 0 marks an empty slot. An exact slot packs that tag above the key's
// arena offset plus one; the arena is pointer-free, so the garbage
// collector never scans it. A key is self-delimiting (a fixed count of
// uvarints, then a channel count and that many pairs; vec.appendKey), so
// no key is a proper prefix of another and a key is stored bare.
type stripe struct {
	mu    sync.Mutex
	slots []uint64
	n     int
	arena []byte
	_     [64]byte // keep stripes off each other's cache lines
}

// visitedSet is the visited-state store the search workers share. Its
// stripes lock only when more than one worker shares it: a one-worker
// search has nothing to exclude.
type visitedSet struct {
	fp     bool          // hash compaction: a slot is the key's fingerprint
	shared bool          // more than one worker: stripes lock
	size   atomic.Int64  // distinct keys inserted
	slots  atomic.Int64  // slots over all stripes
	peak   atomic.Uint64 // math.Float64bits of the highest load a growth saw
	full   atomic.Bool
	held   atomic.Int64 // budget bytes held by queued frontier keys and the numbering, not the set
	budget *MemPool     // this search's MemBudget: the set's bytes and the held ones
	pool   *MemPool     // the shared MemPool (nil: none)
	shards [visitedShards]stripe
}

// newVisited builds the visited set for the configured storage mode and
// memory budget, shared by workers workers.
func newVisited(opts Options, workers int) *visitedSet {
	budget := opts.MemBudget
	if budget <= 0 {
		budget = defaultMemBudget
	}
	return &visitedSet{
		fp:     opts.HashCompaction,
		shared: workers > 1,
		budget: NewMemPool(budget),
		pool:   opts.MemPool,
	}
}

// Insert adds a key and reports whether it was new. A Full set admits
// nothing.
func (v *visitedSet) Insert(key []byte) bool {
	h := stateHash(key)
	s := &v.shards[h%visitedShards]
	if v.shared {
		s.mu.Lock()
	}
	isNew := v.insert(s, key, h)
	if v.shared {
		s.mu.Unlock()
	}
	return isNew
}

// insert adds key, whose hash is h, to stripe s unless s holds it; the
// caller holds s's lock when the set is shared.
func (v *visitedSet) insert(s *stripe, key []byte, h uint64) bool {
	if v.full.Load() {
		return false
	}
	if s.slots == nil && !v.grow(s) {
		v.full.Store(true)
		return false
	}
	sl := h
	if sl == 0 {
		sl = 1 // 0 marks an empty slot
	}
	tag := uint32(h >> 32)
	mask := uint32(len(s.slots) - 1)
	i := tag & mask
	for ; s.slots[i] != 0; i = (i + 1) & mask {
		old := s.slots[i]
		if v.fp {
			if old == sl {
				return false
			}
			continue
		}
		// Stored keys and key are self-delimiting: if the arena's bytes
		// at the offset start with key, the key stored there is key (a
		// shorter one would be a proper prefix of key, a longer one would
		// have key as one).
		if off := int(uint32(old)) - 1; uint32(old>>32) == tag &&
			off+len(key) <= len(s.arena) && bytes.Equal(s.arena[off:off+len(key)], key) {
			return false
		}
	}
	if !v.fp {
		off, ok := v.store(s, key)
		if !ok {
			v.full.Store(true)
			return false
		}
		sl = uint64(tag)<<32 | uint64(off+1)
	}
	s.slots[i] = sl
	v.size.Add(1)
	if s.n++; 4*s.n >= 3*len(s.slots) && !v.grow(s) && 16*s.n >= 15*len(s.slots) {
		v.full.Store(true)
	}
	return true
}

// store appends key to s's arena, growing it by a quarter under the
// budget, and returns its offset; ok is false when the arena cannot take
// the key (the budget denies the growth, or the offset would pass 4 GiB).
func (v *visitedSet) store(s *stripe, key []byte) (off int, ok bool) {
	off = len(s.arena)
	end := off + len(key)
	if end >= math.MaxUint32 {
		return 0, false
	}
	if c := cap(s.arena); end > c {
		grown := max(end, c+c/4+256)
		if !v.acquire(int64(grown - c)) {
			return 0, false
		}
		s.arena = append(make([]byte, 0, grown), s.arena...)
	}
	s.arena = append(s.arena, key...)
	return off, true
}

// grow doubles s's slots, or gives an empty stripe its first
// vecInitSlots, if the budget grants the bytes; it reports whether it
// did.
func (v *visitedSet) grow(s *stripe) bool {
	if lf := v.load(); lf > math.Float64frombits(v.peak.Load()) {
		v.peak.Store(math.Float64bits(lf)) // a lost race only lowers the peak
	}
	old := len(s.slots)
	n := max(2*old, vecInitSlots)
	if !v.acquire(8 * int64(n-old)) {
		return false
	}
	s.slots = regrow(s.slots, n)
	v.slots.Add(int64(n - old))
	return true
}

// regrow rehashes a slot table into one of n slots: a slot's high 32 bits
// pick its probe start, so the arena is not read.
func regrow(old []uint64, n int) []uint64 {
	slots := make([]uint64, n)
	mask := uint32(n - 1)
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

// acquire charges n bytes to the search's budget and the shared pool,
// reporting false (and charging nothing) when either denies them.
func (v *visitedSet) acquire(n int64) bool {
	if !v.budget.Acquire(n) {
		return false
	}
	if !v.pool.Acquire(n) {
		v.budget.Release(n)
		return false
	}
	return true
}

// hold charges n bytes the set does not own (queued frontier keys, the
// numbering's table entries) to the budget; a denied charge marks the set
// Full, which truncates the search. A nil set charges nothing.
func (v *visitedSet) hold(n int64) bool {
	if v == nil {
		return true
	}
	if !v.acquire(n) {
		v.full.Store(true)
		return false
	}
	v.held.Add(n)
	return true
}

// releaseHeld returns n held bytes (keys taken off the frontier).
func (v *visitedSet) releaseHeld(n int64) {
	v.held.Add(-n)
	v.budget.Release(n)
	v.pool.Release(n)
}

// release returns every byte the set, the frontier and the numbering
// acquired; called once when the search ends.
func (v *visitedSet) release() {
	n := v.budget.Used()
	v.budget.Release(n)
	v.pool.Release(n)
}

// Size returns the number of distinct keys inserted so far.
func (v *visitedSet) Size() int { return int(v.size.Load()) }

// Full reports whether the set hit its memory budget and admits no more
// keys (the search must truncate).
func (v *visitedSet) Full() bool { return v.full.Load() }

// load returns the occupancy over every stripe's slots, in [0,1]. It is
// race-free, for the progress ticker.
func (v *visitedSet) load() float64 {
	n := v.slots.Load()
	if n == 0 {
		return 0
	}
	return float64(v.size.Load()) / float64(n)
}

// stats returns the end-of-search accounting snapshot: the set's own
// bytes are everything charged but the held bytes.
func (v *visitedSet) stats() storageStats {
	st := storageStats{
		mode:       "exact",
		tableBytes: v.budget.Used() - v.held.Load(),
		peakLoad:   max(v.load(), math.Float64frombits(v.peak.Load())),
	}
	if v.fp {
		st.mode = "hash-compaction"
		st.omission = sternDillOmission(v.size.Load())
	}
	return st
}
