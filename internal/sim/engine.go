package sim

import (
	"fmt"
	"math/bits"

	"heterogen/internal/core"
	"heterogen/internal/spec"
	"heterogen/internal/workload"
)

// tile is a mesh coordinate.
type tile struct{ x, y int }

// hops returns the XY-routed hop count to another tile.
func (t tile) hops(o tile) int {
	dx := t.x - o.x
	if dx < 0 {
		dx = -dx
	}
	dy := t.y - o.y
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// event is one scheduled occurrence, as the heap holds it: a pointer-free
// key, so a sift moves 24 bytes and pays no write barrier. ref ≥ 0 is a
// message arrival, indexing Sim.msgs; ref < 0 is a step of core ^ref.
type event struct {
	at  uint64
	seq uint64 // tie-break for determinism
	ref int32
}

// coreEvent is the ref of a step of core i.
func coreEvent(i int) int32 { return ^int32(i) }

// eventQueue is a binary min-heap of events ordered by (at, seq). It is
// hand-rolled rather than container/heap so pushes and pops stay free of
// interface boxing — the event loop runs millions of them per simulation.
// Every (at, seq) is distinct, so the pop order is fixed by the keys
// alone.
type eventQueue []event

// before orders events by (at, seq).
func (e *event) before(o *event) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// push and pop sift a hole rather than swapping, so each level moves one
// key.
func (h *eventQueue) push(e event) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = e
	*h = q
}

func (h *eventQueue) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q = q[:n]
	*h = q
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(&q[c]) {
			c = r
		}
		if !q[c].before(&last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	if n > 0 {
		q[i] = last
	}
	return top
}

// nodeKind classifies a node id for routing and latency charging.
type nodeKind uint8

const (
	nkCache  nodeKind = iota // a core's private L1
	nkMerged                 // a merged-directory endpoint (sub-directory or proxy)
)

// channel is one ordered (src, dst, vnet) virtual channel: a FIFO of
// in-flight-delivered messages plus the serialization horizon. The queue
// backing array is reused across the run (head indexes the logical front),
// so steady-state message passing allocates nothing.
type channel struct {
	q    []spec.Msg
	head int
	free uint64 // next cycle the channel can deliver
}

// pending reports whether the channel holds an undelivered message.
func (c *channel) pending() bool { return c.head < len(c.q) }

// popHead consumes the delivered head message, recycling the backing
// array once the queue empties.
func (c *channel) popHead() {
	c.head++
	if c.head == len(c.q) {
		c.q = c.q[:0]
		c.head = 0
	}
}

// Sim is one simulation instance: a heterogeneous machine built from a
// fusion, driven by a workload. All per-node state is indexed by the dense
// node-id space (caches first, then the merged directory's endpoints), so
// the event loop runs on slice indexing rather than map lookups.
type Sim struct {
	// Cfg is the system parameterization the instance was built with.
	Cfg    Config
	fusion *core.Fusion
	merged *core.MergedDir

	caches []*spec.CacheInst
	cores  []*Core

	nNodes   int
	nodeKind []nodeKind // node id → kind
	corendx  []int      // node id → core index (-1 for non-caches)
	pos      []tile     // node id → tile (caches only; others sit at the bank)

	now    uint64
	seq    uint64
	events eventQueue
	// msgs holds the in-flight messages the arrival events index; a slot
	// returns to freeMsgs when its message arrives.
	msgs     []spec.Msg
	freeMsgs []int32

	chans     []channel // dense channel registry, appended on first use
	chanKeys  []chanKey // parallel to chans
	chanIdx   []int32   // chanKey.index() → chans index or -1
	nodeChans [][]int32 // cache node id → its channels, sorted by (src, vnet)
	mergedIDs []spec.NodeID

	// The merged directory's channels are drained through md. A merged
	// channel's rank is its chanIdx slot minus rankBase, the slot of the
	// first endpoint's first channel.
	md       mergedDrain
	rankBase int
	// afterMergedDrain, when set (tests only), runs after every drain of
	// the merged directory.
	afterMergedDrain func()

	bankFree  []uint64 // per-L2-bank occupancy (contention)
	coldMem   []bool   // first-touch DRAM accounting, indexed by address
	ctrlFlits uint64
	dataFlits uint64

	// Stats accumulates as the run progresses; ByType once it ends, from
	// types, the per-MsgID message counts.
	Stats Stats
	types []uint64
}

// Stats aggregates run statistics. Cycles is the simulated wall-clock;
// stall totals are in simulated cycles, counters in events.
type Stats struct {
	// Cycles is the simulated completion time of the slowest core.
	Cycles uint64
	// Messages counts every coherence message sent.
	Messages uint64
	// DataMsgs counts the subset of messages carrying a data block.
	DataMsgs uint64
	// Flits is total network traffic in flits (the Figure 10 traffic metric).
	Flits uint64
	// Handshakes counts handshake request/ack messages (§VIII variants).
	Handshakes uint64
	// MemOps counts completed load and store operations.
	MemOps uint64
	// LoadStall is the total load latency in cycles (issue to completion).
	LoadStall uint64
	// StoreStall is the total store latency in cycles.
	StoreStall uint64
	// Loads and Stores count completed operations by kind.
	Loads  uint64
	Stores uint64
	// ByType breaks traffic down per coherence message type.
	ByType map[spec.MsgType]uint64
}

// New builds a simulator: big cores (cluster 0, protocol[0]) on the first
// tiles, tiny cores (cluster 1, protocol[1]) after them, a merged directory
// banked across the mesh, and the given per-core traces.
func New(cfg Config, fusion *core.Fusion, wl *workload.Workload) (*Sim, error) {
	if len(fusion.Protocols) != 2 {
		return nil, fmt.Errorf("sim: the Figure 10 system uses exactly 2 clusters, fusion has %d", len(fusion.Protocols))
	}
	n := cfg.Cores()
	if len(wl.Traces) != n {
		return nil, fmt.Errorf("sim: workload has %d traces, config has %d cores", len(wl.Traces), n)
	}
	s := &Sim{Cfg: cfg, fusion: fusion, types: make([]uint64, fusion.Vocab().Len()),
		ctrlFlits: uint64(cfg.Flits(false)), dataFlits: uint64(cfg.Flits(true))}
	for _, tr := range wl.Traces {
		for _, op := range tr {
			if a := op.Req.Addr; a < 0 || a >= spec.MaxDecodeAddr {
				return nil, fmt.Errorf("sim: workload address %d outside the directory's [0, %d)", a, spec.MaxDecodeAddr)
			}
		}
	}

	layout := fusion.DefaultLayout(spec.NodeID(n))
	s.merged = core.NewMergedDir(fusion, layout)
	s.mergedIDs = s.merged.OwnedIDs()

	// The merged drain ranks channels by destination node id, which must
	// follow the endpoint order OwnedIDs reports (DefaultLayout allocates
	// ids in that order, after the caches).
	for i, id := range s.mergedIDs {
		if int(id) != n+i {
			return nil, fmt.Errorf("sim: merged-directory endpoint %d has id %d, want %d", i, id, n+i)
		}
	}
	s.nNodes = n + len(s.mergedIDs)
	s.nodeKind = make([]nodeKind, s.nNodes)
	s.corendx = make([]int, s.nNodes)
	s.pos = make([]tile, s.nNodes)
	for i := range s.corendx {
		s.corendx[i] = -1
	}
	for _, id := range s.mergedIDs {
		s.nodeKind[id] = nkMerged
	}
	s.chanIdx = make([]int32, s.nNodes*s.nNodes*int(spec.NumVNets))
	for i := range s.chanIdx {
		s.chanIdx[i] = -1
	}
	s.nodeChans = make([][]int32, s.nNodes)
	s.bankFree = make([]uint64, cfg.L2Banks)
	s.rankBase = chanKey{src: 0, dst: spec.NodeID(n)}.index(s.nNodes)
	s.md.ready.init(len(s.chanIdx) - s.rankBase)
	s.merged.SetChangeSink(&s.md)

	for i := 0; i < n; i++ {
		cluster := 1 // tiny
		capacity := cfg.TinyL1Lines
		big := i < cfg.BigCores
		if big {
			cluster = 0
			capacity = cfg.BigL1Lines
		}
		id := spec.NodeID(i)
		cache := spec.NewCacheInst(id, layout.DirIDs[cluster], fusion.Protocols[cluster])
		s.caches = append(s.caches, cache)
		s.corendx[id] = i
		s.pos[id] = tile{i % cfg.MeshDim, i / cfg.MeshDim}
		s.cores = append(s.cores, newCore(i, cluster, big, capacity, cache, wl.Traces[i]))
	}
	return s, nil
}

// bankTile returns the L2 bank tile serving an address (one bank per mesh
// column, placed mid-column).
func (s *Sim) bankTile(a spec.Addr) tile {
	col := int(a) % s.Cfg.L2Banks
	return tile{col, s.Cfg.MeshDim / 2}
}

// tileOf resolves an endpoint's position for a message (directory and proxy
// endpoints live at the address's bank).
func (s *Sim) tileOf(id spec.NodeID, a spec.Addr) tile {
	if s.nodeKind[id] == nkCache {
		return s.pos[id]
	}
	return s.bankTile(a)
}

// isCold reports (and records) the first touch of an address.
func (s *Sim) isCold(a spec.Addr) bool {
	i := int(a)
	if i >= len(s.coldMem) {
		grown := make([]bool, i+i/2+64)
		copy(grown, s.coldMem)
		s.coldMem = grown
	}
	if s.coldMem[i] {
		return false
	}
	s.coldMem[i] = true
	return true
}

// latency computes a message's network + controller latency in cycles.
func (s *Sim) latency(m spec.Msg) uint64 {
	hops := s.tileOf(m.Src, m.Addr).hops(s.tileOf(m.Dst, m.Addr))
	lat := uint64(hops * (s.Cfg.ChannelLatency + s.Cfg.RouterLatency))
	if s.nodeKind[m.Dst] == nkMerged {
		lat += uint64(s.Cfg.L2Latency)
	}
	// First touch of an address at the directory pays the memory access.
	if s.nodeKind[m.Src] == nkMerged && m.HasData && s.isCold(m.Addr) {
		lat += uint64(s.Cfg.MemLatency)
	}
	return lat
}

// chanFor interns the ordered channel for (src, dst, vnet). A cache
// destination also registers it in its (src, vnet)-ordered channel list.
func (s *Sim) chanFor(src, dst spec.NodeID, vnet spec.VNet) *channel {
	k := chanKey{src, dst, vnet}
	key := k.index(s.nNodes)
	if ci := s.chanIdx[key]; ci >= 0 {
		return &s.chans[ci]
	}
	ci := int32(len(s.chans))
	s.chans = append(s.chans, channel{})
	s.chanKeys = append(s.chanKeys, k)
	s.chanIdx[key] = ci
	if s.nodeKind[dst] != nkCache {
		return &s.chans[ci]
	}
	// Insert into the destination's list keeping (src, vnet) order: drains
	// must visit a node's channels in the same deterministic order the old
	// sort-based scheme produced.
	list := s.nodeChans[dst]
	pos := len(list)
	for i, other := range list {
		oKey := s.chanKeys[other]
		if src < oKey.src || (src == oKey.src && vnet < oKey.vnet) {
			pos = i
			break
		}
	}
	list = append(list, 0)
	copy(list[pos+1:], list[pos:])
	list[pos] = ci
	s.nodeChans[dst] = list
	return &s.chans[ci]
}

// chanKey identifies an ordered channel (kept alongside the dense registry
// for the ordered insertion into a node's channel list).
type chanKey struct {
	src, dst spec.NodeID
	vnet     spec.VNet
}

// index is the channel's slot in Sim.chanIdx. Slots are ordered by (dst,
// src, vnet), so the merged directory's channels occupy one contiguous
// range in exactly the order its drain must offer them.
func (k chanKey) index(nNodes int) int {
	return (int(k.dst)*nNodes+int(k.src))*int(spec.NumVNets) + int(k.vnet)
}

// Send implements spec.Env: schedule the message's arrival respecting the
// ordered channel's serialization.
func (s *Sim) Send(m spec.Msg) {
	flits := s.ctrlFlits
	if m.HasData {
		flits = s.dataFlits
	}
	arrive := s.now + s.latency(m)
	ch := s.chanFor(m.Src, m.Dst, m.VNet)
	if arrive < ch.free {
		arrive = ch.free
	}
	ch.free = arrive + flits
	// Bank contention: directory-bound messages serialize at their L2
	// bank for the bank access time.
	if s.nodeKind[m.Dst] == nkMerged {
		col := int(m.Addr) % s.Cfg.L2Banks
		if free := s.bankFree[col]; arrive < free {
			arrive = free
		}
		s.bankFree[col] = arrive + uint64(s.Cfg.L2Latency)
	}
	s.schedule(arrive, s.holdMsg(m))

	s.Stats.Messages++
	s.Stats.Flits += flits
	s.types[m.Type]++
	if m.HasData {
		s.Stats.DataMsgs++
	}
	if s.fusion.IsHandshake(m.Type) {
		s.Stats.Handshakes++
	}
}

// holdMsg stores an in-flight message in the slab and returns its ref.
func (s *Sim) holdMsg(m spec.Msg) int32 {
	if n := len(s.freeMsgs); n > 0 {
		ref := s.freeMsgs[n-1]
		s.freeMsgs = s.freeMsgs[:n-1]
		s.msgs[ref] = m
		return ref
	}
	s.msgs = append(s.msgs, m)
	return int32(len(s.msgs) - 1)
}

// schedule enqueues the event ref at the given cycle.
func (s *Sim) schedule(at uint64, ref int32) {
	s.events.push(event{at: at, seq: s.seq, ref: ref})
	s.seq++
}

// Run executes to completion and returns the statistics.
func (s *Sim) Run() (*Stats, error) {
	for i, c := range s.cores {
		start := uint64(0)
		if len(c.trace) > 0 {
			start = uint64(c.trace[0].Gap)
		}
		s.schedule(start, coreEvent(i))
	}
	for len(s.events) > 0 {
		e := s.events.pop()
		if e.at > s.Cfg.MaxCycles {
			return nil, fmt.Errorf("sim: exceeded %d cycles (livelock?)", s.Cfg.MaxCycles)
		}
		s.now = e.at
		if e.ref < 0 {
			s.cores[^e.ref].step(s)
			continue
		}
		// The slot is free once its message is queued: drains may reuse it.
		m := &s.msgs[e.ref]
		k := chanKey{m.Src, m.Dst, m.VNet}
		ch := s.chanFor(k.src, k.dst, k.vnet)
		ch.q = append(ch.q, *m)
		s.freeMsgs = append(s.freeMsgs, e.ref)
		if s.nodeKind[k.dst] == nkCache {
			s.drainCache(k.dst)
			continue
		}
		if len(ch.q)-ch.head == 1 {
			// A fresh head; a later message waits behind the head
			// already ready or parked.
			s.md.ready.set(k.index(s.nNodes) - s.rankBase)
		}
		s.drainMerged()
	}
	for i, c := range s.cores {
		if !c.finished {
			return nil, fmt.Errorf("sim: core %d stuck at op %d/%d (deadlock)", i, c.pc, len(c.trace))
		}
		if c.finishAt > s.Stats.Cycles {
			s.Stats.Cycles = c.finishAt
		}
	}
	// A copy: a caller keeping the result must not keep the whole machine.
	st := s.Stats
	st.ByType = map[spec.MsgType]uint64{}
	for t, n := range s.types {
		if n > 0 {
			st.ByType[s.fusion.Vocab().Name(spec.MsgID(t))] = n
		}
	}
	return &st, nil
}

// drainCache delivers queued messages to a cache, retrying its channels
// until no further progress (stalled heads stay queued and are retried on
// the cache's next activity). Each pass hands every pending channel at
// most its head message, in (src, vnet) order.
func (s *Sim) drainCache(dst spec.NodeID) {
	ci := s.corendx[dst]
	cache := s.caches[ci]
	for {
		progress := false
		for _, chi := range s.nodeChans[dst] {
			// Index (not pointer) access: a Deliver can Send on a channel
			// seen for the first time, growing s.chans under us.
			if s.chans[chi].pending() && cache.Deliver(s, s.chans[chi].q[s.chans[chi].head]) {
				s.chans[chi].popHead()
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	// Completing a delivery at a cache may finish its core's pending op.
	s.cores[ci].onCacheActivity(s)
}

// drainMerged delivers queued messages to the merged directory. The
// discipline is the same as drainCache's over all of its endpoints: each
// pass offers every pending channel at most its head, in (endpoint, src,
// vnet) order, and passes repeat while any delivery succeeds. Only ready
// channels are visited, though. A head that fails is parked under its
// address and stays unvisited until the directory reports a change there
// (core.ChangeSink). A failed delivery has no side effects and its outcome
// depends only on the state at its address, so a parked head would fail
// again: skipping it is exact. A channel woken during a pass is visited in
// this pass if its rank is ahead of the cursor and in the next one
// otherwise — where the full scan would have delivered it too.
func (s *Sim) drainMerged() {
	for {
		progress := false
		for r := s.md.ready.next(0); r >= 0; r = s.md.ready.next(r + 1) {
			s.md.ready.clear(r)
			// Index (not pointer) access: a Deliver can Send on a channel
			// seen for the first time, growing s.chans under us.
			ci := s.chanIdx[s.rankBase+r]
			m := s.chans[ci].q[s.chans[ci].head]
			if !s.merged.Deliver(s, m) {
				s.md.park(r, m.Addr)
				continue
			}
			s.chans[ci].popHead()
			progress = true
			if s.chans[ci].pending() {
				s.md.ready.set(r) // the next head, offered next pass
			}
		}
		if !progress {
			break
		}
	}
	if s.afterMergedDrain != nil {
		s.afterMergedDrain()
	}
}

// mergedDrain is the merged directory's channel scheduler: the channels
// whose head may deliver, and the heads parked on an address. A pending
// channel is in exactly one of the two. It is the directory's
// core.ChangeSink.
type mergedDrain struct {
	// ready holds channel ranks (chanKey.index − Sim.rankBase).
	ready readySet
	// parked maps an address to the ranks parked on it; parkedAddrs lists
	// the addresses with parked ranks, for AllChanged.
	parked      []parkList
	parkedAddrs []spec.Addr
}

// parkList is the ranks parked on one address.
type parkList struct {
	ranks  []int32
	listed bool // in mergedDrain.parkedAddrs
}

// park parks a channel's failed head under its address.
func (md *mergedDrain) park(r int, a spec.Addr) {
	if int(a) >= len(md.parked) {
		grown := make([]parkList, int(a)+int(a)/2+64)
		copy(grown, md.parked)
		md.parked = grown
	}
	pl := &md.parked[a]
	if !pl.listed {
		pl.listed = true
		md.parkedAddrs = append(md.parkedAddrs, a)
	}
	pl.ranks = append(pl.ranks, int32(r))
}

// AddrChanged implements core.ChangeSink: wake the heads parked on a.
func (md *mergedDrain) AddrChanged(a spec.Addr) {
	if int(a) >= len(md.parked) {
		return
	}
	pl := &md.parked[a]
	for _, r := range pl.ranks {
		md.ready.set(int(r))
	}
	pl.ranks = pl.ranks[:0]
}

// AllChanged implements core.ChangeSink: wake every parked head.
func (md *mergedDrain) AllChanged() {
	for _, a := range md.parkedAddrs {
		md.AddrChanged(a)
		md.parked[a].listed = false
	}
	md.parkedAddrs = md.parkedAddrs[:0]
}

// readySet is an ordered two-level bitset: lo holds one bit per rank, hi
// one bit per non-zero lo word, so next skips empty stretches 4096 ranks
// at a time.
type readySet struct{ lo, hi []uint64 }

func (b *readySet) init(n int) {
	words := (n + 63) / 64
	b.lo = make([]uint64, words)
	b.hi = make([]uint64, (words+63)/64)
}

func (b *readySet) set(r int) {
	w := r >> 6
	b.lo[w] |= 1 << (r & 63)
	b.hi[w>>6] |= 1 << (w & 63)
}

func (b *readySet) clear(r int) {
	w := r >> 6
	b.lo[w] &^= 1 << (r & 63)
	if b.lo[w] == 0 {
		b.hi[w>>6] &^= 1 << (w & 63)
	}
}

// next returns the smallest set rank ≥ r, or -1.
func (b *readySet) next(r int) int {
	w := r >> 6
	if w >= len(b.lo) {
		return -1
	}
	if x := b.lo[w] >> (r & 63); x != 0 {
		return r + bits.TrailingZeros64(x)
	}
	w++
	h := w >> 6
	if h >= len(b.hi) {
		return -1
	}
	x := b.hi[h] &^ (1<<(w&63) - 1)
	for x == 0 {
		h++
		if h >= len(b.hi) {
			return -1
		}
		x = b.hi[h]
	}
	w = h<<6 + bits.TrailingZeros64(x)
	return w<<6 + bits.TrailingZeros64(b.lo[w])
}
