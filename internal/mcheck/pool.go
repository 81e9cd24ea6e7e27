package mcheck

import "sync/atomic"

// MemPool is a shared memory accountant for the visited-set storage of
// concurrent searches. A one-shot CLI run bounds its visited set with a
// per-search Options.MemBudget; a long-running server hosting many
// searches at once needs those budgets to come out of one machine-wide
// pot, or N concurrent jobs would each believe they own the whole
// machine. When Options.MemPool is set, every byte the visited set
// allocates (its slot tables and, in exact mode, its key arenas) is
// acquired from the pool first and released back when the search ends —
// so a search that cannot grow its table because *other* searches hold
// the memory truncates with BudgetFull exactly as if its private budget
// were exhausted, instead of overcommitting the host.
//
// The accountant is advisory bookkeeping over atomic counters, not an
// allocator: Acquire answers whether the requested bytes fit under the
// configured total, and the caller allocates normally on a grant. A
// search's private MemBudget is kept by a MemPool of its own.
type MemPool struct {
	total int64
	used  atomic.Int64
}

// NewMemPool creates an accountant over total bytes. A nil *MemPool is
// valid everywhere and grants everything (the single-search case).
func NewMemPool(total int64) *MemPool {
	return &MemPool{total: total}
}

// Acquire reserves n bytes, reporting false (and reserving nothing) when
// the pool cannot cover them. Nil-safe: a nil pool always grants.
func (p *MemPool) Acquire(n int64) bool {
	if p == nil || n <= 0 {
		return true
	}
	for {
		u := p.used.Load()
		if u+n > p.total {
			return false
		}
		if p.used.CompareAndSwap(u, u+n) {
			return true
		}
	}
}

// Release returns n bytes to the pool. Nil-safe.
func (p *MemPool) Release(n int64) {
	if p == nil || n <= 0 {
		return
	}
	p.used.Add(-n)
}

// Total is the pool's configured capacity in bytes (0 for nil).
func (p *MemPool) Total() int64 {
	if p == nil {
		return 0
	}
	return p.total
}

// Used is the currently reserved byte count (0 for nil).
func (p *MemPool) Used() int64 {
	if p == nil {
		return 0
	}
	return p.used.Load()
}
