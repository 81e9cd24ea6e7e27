package mcheck

import (
	"testing"
)

// TestMemPoolAccounting exercises the CAS accountant directly: grants up
// to the cap, denials past it, and release symmetry (including the
// nil-pool no-op contract every storage call site relies on).
func TestMemPoolAccounting(t *testing.T) {
	p := NewMemPool(100)
	if !p.Acquire(60) || !p.Acquire(40) {
		t.Fatal("acquisitions within the cap must be granted")
	}
	if p.Acquire(1) {
		t.Fatal("acquisition past the cap must be denied")
	}
	p.Release(40)
	if got := p.Used(); got != 60 {
		t.Fatalf("Used() = %d after release, want 60", got)
	}
	if !p.Acquire(40) {
		t.Fatal("released bytes must be grantable again")
	}
	p.Release(100)
	if got := p.Used(); got != 0 {
		t.Fatalf("Used() = %d after full release, want 0", got)
	}
	var nilPool *MemPool
	if !nilPool.Acquire(1 << 40) {
		t.Fatal("nil pool must grant everything")
	}
	nilPool.Release(1 << 40) // must not panic
	if nilPool.Total() != 0 || nilPool.Used() != 0 {
		t.Fatal("nil pool reports zero totals")
	}
}

// TestMemPoolSharedBudget runs searches of either key kind against a
// shared pool: a pool too small for the visited set to grow truncates
// the search with BudgetFull (the same failure mode as a private
// MemBudget), and every search returns its bytes on exit, so a following
// search on the same pool sees the full budget again.
func TestMemPoolSharedBudget(t *testing.T) {
	for _, kind := range keyKinds {
		t.Run(kind.name, func(t *testing.T) {
			// Generous pool first: the search completes and releases
			// everything.
			pool := NewMemPool(64 << 20)
			res := exploreWith(t, iriw(), 1, Options{POR: POROff, HashCompaction: kind.fp, MemPool: pool})
			if res.Cancelled || res.Truncated {
				t.Fatalf("search under a generous pool did not complete: %s", res)
			}
			if got := pool.Used(); got != 0 {
				t.Fatalf("pool.Used() = %d after the search released, want 0", got)
			}

			// Starved pool, storage level: a stripe's first slots are
			// denied, and the set declares itself full — which the search
			// surfaces as a BudgetFull truncation, same as a private
			// MemBudget exhausting.
			tiny := NewMemPool(1)
			s := newVisited(Options{HashCompaction: kind.fp, MemPool: tiny}, 1)
			for i := 0; i < 1<<17 && !s.Full(); i++ {
				s.Insert(encOf(i))
			}
			if !s.Full() {
				t.Fatal("visited set under a starved pool never declared itself full")
			}
			s.release()
			if got := tiny.Used(); got != 0 {
				t.Fatalf("starved pool Used() = %d after release, want 0", got)
			}

			// Two searches sharing one pool sequentially both complete and
			// net out to zero — the server's steady-state invariant.
			shared := NewMemPool(64 << 20)
			for i := 0; i < 2; i++ {
				r := exploreWith(t, mpPlain(), 1, Options{HashCompaction: kind.fp, MemPool: shared})
				if !r.Ok() {
					t.Fatalf("shared-pool search %d failed: %s", i, r)
				}
			}
			if got := shared.Used(); got != 0 {
				t.Fatalf("shared pool Used() = %d after both searches, want 0", got)
			}
		})
	}
}
