package sim

import (
	"heterogen/internal/spec"
	"heterogen/internal/workload"
)

// Core drives one cache with a workload trace. Tiny cores are in-order and
// fully serialize memory latency; big cores overlap the inter-op
// computation gap (up to the window) with outstanding memory latency,
// approximating the 4-way out-of-order pipeline of Table III.
type Core struct {
	idx      int
	cluster  int
	big      bool
	capacity int
	cache    *spec.CacheInst
	trace    workload.CoreTrace

	pc       int
	waiting  bool
	issuedAt uint64
	useSeq   uint64 // the last LRU stamp handed to a line (CacheInst.Touch)
	finished bool
	finishAt uint64
}

func newCore(idx, cluster int, big bool, capacity int, cache *spec.CacheInst, trace workload.CoreTrace) *Core {
	return &Core{idx: idx, cluster: cluster, big: big, capacity: capacity,
		cache: cache, trace: trace}
}

// step attempts to issue the next trace op at the current time.
func (c *Core) step(s *Sim) {
	if c.finished || c.waiting {
		return
	}
	if c.pc >= len(c.trace) {
		c.finished = true
		c.finishAt = s.now
		return
	}
	op := c.trace[c.pc]
	if op.Req.Op == spec.OpLoad || op.Req.Op == spec.OpStore {
		c.ensureCapacity(s, op.Req.Addr)
	}
	if !c.cache.Issue(s, op.Req) {
		// Transient conflict (e.g. a write-through still draining on this
		// line); retry shortly.
		s.schedule(s.now+1, coreEvent(c.idx))
		return
	}
	c.touch(op.Req.Addr, op.Req.Op)
	c.issuedAt = s.now
	switch op.Req.Op {
	case spec.OpLoad:
		s.Stats.Loads++
		s.Stats.MemOps++
	case spec.OpStore:
		s.Stats.Stores++
		s.Stats.MemOps++
	}
	if c.cache.Idle() {
		c.complete(s)
		return
	}
	c.waiting = true
	// Issuing may have unblocked a stalled message at this cache.
	s.drainCache(c.cache.ID())
}

// onCacheActivity checks whether the pending op completed.
func (c *Core) onCacheActivity(s *Sim) {
	if !c.waiting || !c.cache.Idle() {
		return
	}
	c.waiting = false
	c.complete(s)
}

// complete accounts the finished op and schedules the next issue.
func (c *Core) complete(s *Sim) {
	op := c.trace[c.pc]
	stall := s.now - c.issuedAt
	switch op.Req.Op {
	case spec.OpLoad:
		s.Stats.LoadStall += stall
	case spec.OpStore:
		s.Stats.StoreStall += stall
	}
	c.pc++
	gap := uint64(0)
	if c.pc < len(c.trace) {
		gap = uint64(c.trace[c.pc].Gap)
	}
	next := s.now + uint64(s.Cfg.L1Latency) + gap
	if c.big {
		// Overlap the gap (bounded by the window) with the memory stall
		// just paid: the OoO core did that work while the miss was
		// outstanding.
		overlap := gap
		if w := uint64(s.Cfg.BigWindow); overlap > w {
			overlap = w
		}
		if overlap > stall {
			overlap = stall
		}
		next -= overlap
	}
	s.schedule(next, coreEvent(c.idx))
}

// touch stamps the line a load or store used with the next LRU stamp.
func (c *Core) touch(a spec.Addr, op spec.CoreOp) {
	if op == spec.OpLoad || op == spec.OpStore {
		c.useSeq++
		c.cache.Touch(a, c.useSeq)
	}
}

// ensureCapacity evicts the least-recently-used evictable line when the L1
// is full and the target line is absent. A line never touched counts as
// stamp 0, and ties go to the lowest address (CacheInst.LRUVictim). A
// victim whose write-back leaves it resident is reset to stamp 0.
func (c *Core) ensureCapacity(s *Sim, a spec.Addr) {
	if c.cache.LineState(a) != c.cache.Protocol().Cache.InitID() {
		return
	}
	if c.cache.NumLines() < c.capacity {
		return
	}
	if victim, ok := c.cache.LRUVictim(); ok {
		c.cache.Evict(s, victim)
		c.cache.Touch(victim, 0)
	}
}
