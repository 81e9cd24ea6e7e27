package spec

import (
	"fmt"

	"heterogen/internal/memmodel"
)

// Line is the per-address state a cache controller keeps.
type Line struct {
	State   StateID
	Data    int
	HasData bool
	// Invalidation-ack bookkeeping, maintained by the runtime (ProtoGen
	// supplies the equivalent counting automatically in generated
	// protocols).
	AckBalance int
	AckArmed   bool
}

// cacheEntry is one materialized line, kept in a slice sorted by address:
// the two or three lines a model-checked cache holds clone as one memcpy
// and snapshot without sorting, where the old map paid an allocation per
// line per clone on the state-space search's hot path. Unlike a
// directory's address-indexed table (DirInst), a cache holds at most its
// L1 capacity, so its storage stays proportional to that, not to the
// address range: one table per simulated core would cost more than the
// binary search it saves.
//
// stamp is a host's recency mark (Touch): the performance simulator's LRU
// order. It is bookkeeping outside the protocol state — neither encoded
// nor compared — and a freshly materialized line starts at 0.
type cacheEntry struct {
	a     Addr
	l     Line
	stamp uint64
}

// CacheInst executes a cache controller specification for one core's
// private cache. The pipeline model matches §II-B: an in-order core that
// presents one request at a time; a request may nonetheless complete
// "early" (ActCoreDone in a transient state), leaving the transaction
// outstanding — the behavior §VI-D2's analysis looks for.
type CacheInst struct {
	id    NodeID
	dir   NodeID
	proto *Protocol
	m     *Machine     // proto.Cache
	lines []cacheEntry // sorted by address

	pending  *CoreReq // current core request, nil when idle; else &req
	req      CoreReq  // pending's storage, so an issue allocates nothing
	syncWait bool     // pending is a sync op waiting for outstanding drain
	lastLoad int      // value returned by the most recent completed load
	multi    bool     // a whole-cache effect ran; next compaction scans all lines

	// trace, when non-nil, receives a line for every applied transition.
	trace func(string)
}

// NewCacheInst builds a cache for the given protocol, wired to directory
// id dir. It freezes the protocol (Protocol.Freeze).
func NewCacheInst(id, dir NodeID, proto *Protocol) *CacheInst {
	proto.Freeze()
	return &CacheInst{id: id, dir: dir, proto: proto, m: proto.Cache}
}

// SetTrace installs a trace sink (used by examples and debugging).
func (c *CacheInst) SetTrace(fn func(string)) { c.trace = fn }

// OwnedIDs implements Component.
func (c *CacheInst) OwnedIDs() []NodeID { return []NodeID{c.id} }

// ID returns the cache's node id.
func (c *CacheInst) ID() NodeID { return c.id }

// Protocol returns the protocol this cache runs.
func (c *CacheInst) Protocol() *Protocol { return c.proto }

// Vocab implements Namer.
func (c *CacheInst) Vocab() *Vocab { return c.proto.vocab }

// findLine binary-searches the sorted line slice for addr, returning the
// insertion index and whether the line is present. The checker holds two
// or three lines per cache, but the performance simulator holds hundreds,
// so lookup must not be linear. Each public entry point searches once and
// works on the index from then on.
func (c *CacheInst) findLine(a Addr) (int, bool) {
	lo, hi := 0, len(c.lines)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.lines[mid].a < a {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(c.lines) && c.lines[lo].a == a
}

// lineAt returns the materialized line for addr, or nil. The pointer is
// valid until the next materialization or compaction.
func (c *CacheInst) lineAt(a Addr) *Line {
	if i, ok := c.findLine(a); ok {
		return &c.lines[i].l
	}
	return nil
}

// stateAt returns the state of the line findLine reported at (i, ok): the
// initial state when the line is absent.
func (c *CacheInst) stateAt(i int, ok bool) StateID {
	if ok {
		return c.lines[i].l.State
	}
	return c.m.init
}

// lineFor returns the line findLine reported at (i, ok) for addr,
// inserting an initial-state line at i if it is absent. Insertion shifts
// the slice: pointers from earlier lineAt calls are invalid afterwards.
// Public entry points materialize at most once, and only once the line is
// sure to take a transition.
func (c *CacheInst) lineFor(i int, ok bool, a Addr) *Line {
	if !ok {
		c.lines = append(c.lines, cacheEntry{})
		copy(c.lines[i+1:], c.lines[i:])
		c.lines[i] = cacheEntry{a: a, l: Line{State: c.m.init}}
	}
	return &c.lines[i].l
}

// pristine reports whether a line is back to the untouched initial state.
func (c *CacheInst) pristine(l *Line) bool {
	return l.State == c.m.init && !l.AckArmed && l.AckBalance == 0
}

// compact drops lines that are back to the pristine initial state so
// snapshots stay canonical. Called once at the end of every public entry
// point (rather than eagerly mid-transition) so line pointers stay valid
// while a transition chain runs.
func (c *CacheInst) compact() {
	kept := c.lines[:0]
	for i := range c.lines {
		if !c.pristine(&c.lines[i].l) {
			kept = append(kept, c.lines[i])
		}
	}
	c.lines = kept
}

// compactAfter is the end-of-entry-point compaction. An entry point that
// only touched line i checks just that line; whole-cache effects (sync
// behaviors, fill-triggered self-invalidation) set c.multi so the full
// scan runs instead. This keeps compaction O(1) for the performance
// simulator's large caches without changing what compact produces. A
// transition never inserts or removes a line, so the index the entry
// point found is still the line's.
func (c *CacheInst) compactAfter(i int) {
	if c.multi {
		c.multi = false
		c.compact()
		return
	}
	if c.pristine(&c.lines[i].l) {
		c.lines = append(c.lines[:i], c.lines[i+1:]...)
	}
}

// Idle reports whether the cache has no pending core request.
func (c *CacheInst) Idle() bool { return c.pending == nil }

// LastLoad returns the value observed by the most recently completed load.
func (c *CacheInst) LastLoad() int { return c.lastLoad }

// LineState returns the state of the line at addr (init state if absent).
func (c *CacheInst) LineState(a Addr) StateID {
	if l := c.lineAt(a); l != nil {
		return l.State
	}
	return c.m.init
}

// LineData returns the data of the line at addr.
func (c *CacheInst) LineData(a Addr) (int, bool) {
	if l := c.lineAt(a); l != nil {
		return l.Data, l.HasData
	}
	return memmodel.InitValue, false
}

// Outstanding reports whether any line is in a transient state.
func (c *CacheInst) Outstanding() bool {
	for i := range c.lines {
		if !c.m.StableID(c.lines[i].l.State) {
			return true
		}
	}
	return false
}

// CanIssue reports whether the cache could accept the core request now
// without side effects.
func (c *CacheInst) CanIssue(req CoreReq) bool {
	if c.pending != nil {
		return false
	}
	if req.Op.IsSync() {
		return true
	}
	if req.Op == OpEvict {
		// Replacements of lines with no eviction transition (not cached,
		// or a state kept resident) complete as no-ops, so litmus program
		// epilogues can flush unconditionally.
		return true
	}
	return c.m.CoreStep(c.LineState(req.Addr), req.Op) != nil
}

// Issue starts processing a core request. It returns false (with no side
// effects) if the cache cannot accept it yet. The request is complete once
// Idle() again.
func (c *CacheInst) Issue(env Env, req CoreReq) bool {
	if c.pending != nil {
		return false
	}
	if req.Op.IsSync() {
		c.req = req
		c.pending = &c.req
		c.startSync(env, req.Op)
		if c.multi {
			c.multi = false
			c.compact()
		}
		return true
	}
	i, ok := c.findLine(req.Addr)
	t := c.m.CoreStep(c.stateAt(i, ok), req.Op)
	if t == nil {
		// A replacement without an eviction transition is a no-op that
		// completes at once (see CanIssue); anything else cannot issue.
		return req.Op == OpEvict
	}
	c.req = req
	c.pending = &c.req
	c.apply(env, req.Addr, c.lineFor(i, ok, req.Addr), t, nil)
	if req.Op == OpEvict && c.pending != nil && c.pending.Op == OpEvict {
		// Replacements complete immediately from the core's perspective;
		// the write-back transaction drains asynchronously (wait on it
		// with a fence/release if needed).
		c.pending = nil
	}
	c.compactAfter(i)
	return true
}

// startSync executes the whole-cache SyncBehavior for a sync op.
func (c *CacheInst) startSync(env Env, op CoreOp) {
	sb := c.m.syncs[op]
	if sb == nil {
		// Undeclared sync ops are no-ops (e.g. Fence on an SC protocol).
		c.pending = nil
		return
	}
	// Arm the wait flag before triggering write-backs: apply() checks for
	// sync completion after every transition it executes.
	c.syncWait = sb.wait
	c.multi = true
	for i := range c.lines {
		l := &c.lines[i].l
		switch {
		case sb.invalidate[l.State]:
			// Self-invalidation is silent.
			*l = Line{State: c.m.init}
		case sb.writeback[l.State]:
			if t := c.m.CoreStep(l.State, OpEvict); t != nil {
				c.apply(env, c.lines[i].a, l, t, nil)
			}
		}
	}
	c.checkSyncDone()
}

// checkSyncDone completes a waiting sync op once all lines are stable.
func (c *CacheInst) checkSyncDone() {
	if c.pending != nil && c.pending.Op.IsSync() {
		if !c.syncWait || !c.Outstanding() {
			c.pending = nil
			c.syncWait = false
		}
	}
}

// Addrs returns the addresses of currently materialized lines in order.
func (c *CacheInst) Addrs() []Addr { return c.addrs() }

// NumLines returns the count of materialized lines; AddrAt returns the
// i-th address in ascending order. Together they let hot-path callers
// (the model checker's eviction enumeration) walk the cache without the
// slice Addrs allocates.
func (c *CacheInst) NumLines() int { return len(c.lines) }

// AddrAt returns the address of the i-th materialized line.
func (c *CacheInst) AddrAt(i int) Addr { return c.lines[i].a }

// addrs returns the cache's populated addresses in order.
func (c *CacheInst) addrs() []Addr {
	out := make([]Addr, 0, len(c.lines))
	for i := range c.lines {
		out = append(out, c.lines[i].a)
	}
	return out
}

// Evict triggers a replacement of the line at addr, if its state has an
// eviction transition. Used by the model checker's optional eviction
// exploration and by sync write-backs.
func (c *CacheInst) Evict(env Env, a Addr) bool {
	i, ok := c.findLine(a)
	t := c.m.CoreStep(c.stateAt(i, ok), OpEvict)
	if t == nil {
		return false
	}
	c.apply(env, a, c.lineFor(i, ok, a), t, nil)
	c.compactAfter(i)
	return true
}

// Touch stamps the resident line at a with a host's recency mark (see
// cacheEntry); an absent line is left alone.
func (c *CacheInst) Touch(a Addr, stamp uint64) {
	if i, ok := c.findLine(a); ok {
		c.lines[i].stamp = stamp
	}
}

// LRUVictim returns the resident line with the least stamp among those in
// a stable state with an eviction transition, the lowest address first
// on a tie, in one pass over the lines; ok is false when no line
// qualifies.
func (c *CacheInst) LRUVictim() (a Addr, ok bool) {
	oldest := ^uint64(0)
	for i := range c.lines {
		e := &c.lines[i]
		if e.stamp >= oldest || !c.m.StableID(e.l.State) || c.m.CoreStep(e.l.State, OpEvict) == nil {
			continue
		}
		oldest, a, ok = e.stamp, e.a, true
	}
	return a, ok
}

// Deliver implements Component. A stalled message leaves the cache
// untouched.
func (c *CacheInst) Deliver(env Env, m Msg) bool {
	i, ok := c.findLine(m.Addr)
	// Automatic invalidation-ack bookkeeping.
	if m.Type == c.proto.ackID && m.Type != NoMsg {
		line := c.lineFor(i, ok, m.Addr)
		line.AckBalance--
		c.fireLastAck(env, m.Addr, line)
		c.compactAfter(i)
		return true
	}
	t := c.m.MsgStep(c.stateAt(i, ok), &m, MsgCtx{})
	if t == nil {
		return false
	}
	c.apply(env, m.Addr, c.lineFor(i, ok, m.Addr), t, &m)
	c.compactAfter(i)
	return true
}

// fireLastAck synthesizes EvLastAck when the armed balance hits zero.
func (c *CacheInst) fireLastAck(env Env, a Addr, line *Line) {
	if !line.AckArmed || line.AckBalance != 0 {
		return
	}
	ev := Msg{Type: c.proto.lastAckID, Addr: a, Src: c.id, Dst: c.id}
	t := c.m.MsgStep(line.State, &ev, MsgCtx{})
	if t == nil {
		return
	}
	line.AckArmed = false
	c.apply(env, a, line, t, &ev)
}

// apply executes a transition on a line.
func (c *CacheInst) apply(env Env, a Addr, line *Line, t *Step, m *Msg) {
	if c.trace != nil {
		c.trace(fmt.Sprintf("cache%d a%d %s --%s--> %s", c.id, a, t.Row.From, t.Row.On, t.Row.Next))
	}
	filled := false
	for i := range t.Acts {
		act := &t.Acts[i]
		switch act.Op {
		case ActSend:
			c.send(env, a, line, act, m)
		case ActStoreValue:
			if c.pending != nil && c.pending.Op == OpStore {
				line.Data = c.pending.Value
				line.HasData = true
			}
		case ActLoadMsgData:
			if m != nil {
				line.Data = m.Data
				line.HasData = true
				// Only load fills trigger InvalidateOnFill: observing a
				// fresh value through a read creates R→R/multi-copy-atomic
				// obligations, whereas a store's fill does not (W→R is the
				// relaxation TSO permits).
				filled = c.pending != nil && c.pending.Op == OpLoad
			}
		case ActSetAcks:
			if m != nil {
				line.AckArmed = true
				line.AckBalance += m.Ack
			}
		case ActCoreDone:
			if c.pending != nil {
				if c.pending.Op == OpLoad {
					c.lastLoad = line.Data
				}
				c.pending = nil
			}
		default:
			panic(fmt.Sprintf("spec: cache %s executing non-cache action %s", c.proto.Name, act.Action))
		}
	}
	line.State = t.Next
	if filled {
		c.invalidateOnFill(a)
	}
	c.fireLastAck(env, a, line)
	c.checkSyncDone()
}

// invalidateOnFill applies the machine's fill-triggered self-invalidation
// (TSO-CC-basic): every *other* line in a listed state drops to init.
func (c *CacheInst) invalidateOnFill(filledAddr Addr) {
	if !c.m.hasFill {
		return
	}
	c.multi = true
	for i := range c.lines {
		if c.lines[i].a == filledAddr {
			continue
		}
		if l := &c.lines[i].l; c.m.invFill[l.State] {
			*l = Line{State: c.m.init}
		}
	}
}

// send materializes and emits a message per the action.
func (c *CacheInst) send(env Env, a Addr, line *Line, act *Act, m *Msg) {
	out := Msg{Type: act.Type, Addr: a, Src: c.id, VNet: act.VNet}
	switch act.Dst {
	case ToDir:
		out.Dst = c.dir
		out.Req = c.id
	case ToMsgSrc:
		out.Dst = m.Src
		out.Req = m.Req
	case ToMsgReq:
		out.Dst = m.Req
		out.Req = m.Req
	default:
		panic(fmt.Sprintf("spec: cache send to %s", act.Dst))
	}
	switch act.Payload {
	case PayloadLine:
		out.Data, out.HasData = line.Data, true
	case PayloadStore:
		if c.pending != nil {
			out.Data, out.HasData = c.pending.Value, true
		}
	case PayloadMsg:
		if m != nil {
			out.Data, out.HasData = m.Data, true
		}
	}
	env.Send(out)
}

// Clone implements Component.
func (c *CacheInst) Clone() Component { return c.CloneCache() }

// CloneCache deep-copies the cache with its concrete type.
func (c *CacheInst) CloneCache() *CacheInst {
	cp := &CacheInst{id: c.id, dir: c.dir, proto: c.proto, m: c.m,
		syncWait: c.syncWait, lastLoad: c.lastLoad}
	if len(c.lines) > 0 {
		cp.lines = append(make([]cacheEntry, 0, len(c.lines)), c.lines...)
	}
	if c.pending != nil {
		cp.req = *c.pending
		cp.pending = &cp.req
	}
	return cp
}

// Snapshot implements Component.
func (c *CacheInst) Snapshot(b *SnapshotWriter) {
	fmt.Fprintf(b, "cache%d{", c.id)
	for i := range c.lines {
		l := &c.lines[i].l
		fmt.Fprintf(b, "a%d:%s,%d,%t,%d,%t;", c.lines[i].a, c.m.StateName(l.State), l.Data, l.HasData, l.AckBalance, l.AckArmed)
	}
	if c.pending != nil {
		fmt.Fprintf(b, "|pend=%s", c.pending)
	}
	fmt.Fprintf(b, "|sw=%t|ll=%d}", c.syncWait, c.lastLoad)
}
