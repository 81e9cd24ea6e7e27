package mcheck

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"heterogen/internal/spec"
)

// Numbered search states. Inside a search a state is a vector of small
// numbers: one per component, the cores' progress inline, and one
// (channel, FIFO) pair per nonempty channel. The numbers index tables
// that every worker of the search shares:
//
//   - a component position's table holds one entry per distinct state of
//     that component (interned by its AppendBinary image) with the facts
//     the search asks of it (RefNodes, and for a cache a frozen instance
//     that answers CanIssue, Idle, LastLoad and the lines an eviction may
//     replace), plus a memo (number, input) → (next number, sends) over
//     the inputs delivered message, core request and eviction address. A
//     miss decodes the state's image into the worker's own instance of
//     the component, runs its Deliver/Issue/Evict and interns the result;
//   - the component that holds the shared memory (a directory) is
//     numbered by its (image, memory) pair, so the memory is no position
//     of its own. That holds for core.CompiledDir too: its image is its
//     state register, and its compiled table is consulted only on a
//     memo miss, through the worker's instance's Deliver;
//   - a FIFO number stands for a channel's message sequence, with its
//     pop and push memos and the set of nodes its messages name;
//   - a message number stands for one spec.Msg and its channel.
//
// A move is then a table lookup and a successor a vector edit; the
// vector's uvarint bytes are the visited-set key and the frontier entry.
// Only invariants, deadlocks and outcomes, which read a whole machine,
// see a System, materialized from the vector.
//
// Every new entry — component state, memo record, message, FIFO content
// and FIFO push — is charged to the search's memory budget through the
// visited set (visitedSet.hold), outside the set's own TableBytes. The
// entry is made whether or not the charge is granted: a denied charge
// marks the set Full, and the search truncates with BudgetFull at its
// next check. The charges are estimates of what an entry adds to its
// tables.

// Replayer is implemented by a component that counts its own deliveries
// (core.CompiledDir). A memo hit serves a delivery without running the
// component, so each worker tallies the hits at such a position, and the
// totals are handed over once the search ends without a panic.
type Replayer interface {
	// Replayed adds n deliveries served without running the component.
	Replayed(n int64)
}

// stall is the next number of a refused move.
const stall = ^uint32(0)

// Memo input kinds, in bits 30–31 of a memo key's low word.
const (
	inDeliver = iota
	inIssue
	inEvict
)

// inputBits bounds a memo input: message numbers, request numbers and
// eviction addresses below 2^30.
const inputBits = 30

// mapSlot is a map entry's estimated cost beyond its key and value.
const mapSlot = 8

// Estimated budget charges of the numbering's fixed-size entries.
const (
	memoBytes = int64(unsafe.Sizeof(uint64(0)) + unsafe.Sizeof(memoOut{}) + mapSlot)
	msgBytes  = int64(unsafe.Sizeof(msgEntry{}) + unsafe.Sizeof(spec.Msg{}) + 4 + mapSlot)
	pushBytes = int64(8 + 4 + mapSlot)
	// indexBytes is a string-keyed index entry, not counting the key's
	// bytes.
	indexBytes = int64(unsafe.Sizeof("") + 4 + mapSlot)
)

// compEntryBytes is the estimated charge of a new component entry: the
// entry and its list slot, its image twice (the entry's and the index
// key's copy), its index slot and eviction list, and for a cache the
// frozen copy, counted as its image's size again.
func compEntryBytes(e *compEntry) int64 {
	n := int64(unsafe.Sizeof(*e)+unsafe.Sizeof(e)) + 2*int64(len(e.img)) + indexBytes +
		int64(len(e.evicts))*int64(unsafe.Sizeof(spec.Addr(0)))
	if e.cache != nil {
		n += int64(len(e.img))
	}
	return n
}

// fifoEntryBytes is the estimated charge of a new FIFO content: the entry
// and its message numbers, twice (the entry's and the index key's).
func fifoEntryBytes(e *fifoEntry) int64 {
	return int64(unsafe.Sizeof(*e)) + 8*int64(len(e.msgs)) + indexBytes
}

// memoKey packs a state number and an input into a memo key.
func memoKey(n uint32, kind, in uint32) uint64 {
	if in>>inputBits != 0 {
		panic(fmt.Sprintf("mcheck: memo input %d out of range", in))
	}
	return uint64(n)<<32 | uint64(kind)<<inputBits | uint64(in)
}

// list is an append-only table readers index without a lock: add runs
// under the owner's write lock and publishes a fresh slice header after
// writing the element it newly covers, so a reader that holds a number
// always finds its element.
type list[T any] struct {
	items []T // the owner's view, guarded by its lock
	view  atomic.Pointer[[]T]
}

func (l *list[T]) add(v T) uint32 {
	l.items = append(l.items, v)
	s := l.items
	l.view.Store(&s)
	return uint32(len(s) - 1)
}

func (l *list[T]) at(i uint32) *T { return &(*l.view.Load())[i] }

// gate is a table's lock, taken only when workers share the search.
type gate struct {
	mu     sync.Mutex
	shared bool
}

func (g *gate) lock() {
	if g.shared {
		g.mu.Lock()
	}
}

func (g *gate) unlock() {
	if g.shared {
		g.mu.Unlock()
	}
}

// compEntry is one numbered component state and the facts the search
// reads off it.
type compEntry struct {
	cache  *spec.CacheInst // a frozen copy of the state, for a cache; else nil
	img    []byte          // the image, then (memory owner) the memory's
	split  int             // end of the component's part of img
	refs   spec.NodeSet    // RefNodes (POR)
	evicts []spec.Addr     // lines an eviction may replace (caches)
}

// memoOut is a memoized move: the next number (stall when refused) and
// the numbers of the messages it sent, in order.
type memoOut struct {
	next  uint32
	sends []uint32
}

// compTable numbers one component position's states.
type compTable struct {
	gate
	entries list[*compEntry]
	index   map[string]uint32
	memo    map[uint64]memoOut
	budget  *visitedSet // charged for every new entry and record (nil: none)
}

func (t *compTable) at(n uint32) *compEntry { return *t.entries.at(n) }

// lookup returns the memoized outcome of key.
func (t *compTable) lookup(key uint64) (memoOut, bool) {
	t.lock()
	out, ok := t.memo[key]
	t.unlock()
	return out, ok
}

// record memoizes out under key and returns the outcome the memo keeps
// (another worker's, when it recorded the same move first).
func (t *compTable) record(key uint64, out memoOut) memoOut {
	t.lock()
	defer t.unlock()
	if prev, ok := t.memo[key]; ok {
		return prev
	}
	t.memo[key] = out
	t.budget.hold(memoBytes + 4*int64(len(out.sends)))
	return out
}

// intern returns the number of c's state (with mem's, for the memory
// owner), recording the entry when the state is new; a cache's entry
// keeps a copy of c, so the caller may go on mutating c. buf is scratch
// for the image.
func (t *compTable) intern(c spec.Component, mem *spec.Memory, buf *[]byte) uint32 {
	img := c.AppendBinary((*buf)[:0])
	split := len(img)
	if mem != nil {
		img = mem.AppendBinary(img)
	}
	*buf = img
	t.lock()
	defer t.unlock()
	if n, ok := t.index[string(img)]; ok {
		return n
	}
	e := &compEntry{img: append([]byte(nil), img...), split: split}
	if r, ok := c.(spec.NodeReferrer); ok {
		e.refs = r.RefNodes()
	}
	if cache, ok := c.(*spec.CacheInst); ok {
		e.cache = cache.CloneCache()
		proto := cache.Protocol().Cache
		for i := 0; i < cache.NumLines(); i++ {
			a := cache.AddrAt(i)
			if st := cache.LineState(a); proto.StableID(st) && st != proto.InitID() {
				e.evicts = append(e.evicts, a)
			}
		}
	}
	n := t.entries.add(e)
	t.index[string(e.img)] = n
	t.budget.hold(compEntryBytes(e))
	return n
}

// msgEntry is one numbered message and the channel it travels on.
type msgEntry struct {
	m  spec.Msg
	ch uint32
}

// fifoEntry is one numbered channel content.
type fifoEntry struct {
	msgs  []uint32     // message numbers, head first
	nodes spec.NodeSet // every Src and Req the messages name
	pop   uint32       // the content without its head (0: empty)
}

// numbering is one search's shared tables. FIFO number 0 is the empty
// channel, which no vector holds.
type numbering struct {
	budget *visitedSet // charged for every new entry (nil: none)

	route  []int // NodeID → component position (System.route)
	nodes  int   // len(route): channel numbers are (src·nodes + dst)·NumVNets + vnet
	pos    []*compTable
	replay []Replayer // position i's component as a Replayer, or nil
	owner  int        // the position holding the shared memory, -1 if none

	// The cores' inline block: core i's words start at coreOff[i] — its
	// PC<<1|issued, then one zigzag value per load of its program, the
	// ones completed so far first.
	coreOff   []int
	coreWords int
	corePos   []int          // position of core i's cache (-1: not a CacheInst)
	progReq   [][]uint32     // core i's request numbers by PC
	loadsAt   [][]int        // core i's loads completed before each PC
	reqs      []spec.CoreReq // request numbers' requests
	reqIndex  map[spec.CoreReq]uint32

	msgGate  gate
	msgs     list[msgEntry]
	msgIndex map[spec.Msg]uint32

	fifoGate  gate
	fifos     list[fifoEntry]
	fifoIndex map[string]uint32
	fifoPush  map[uint64]uint32
	fifoKey   []byte // intern scratch, guarded by fifoGate
}

// newNumbering builds the tables for searches from s over workers
// workers, charging their entries to budget's (nil: to none).
func newNumbering(s *System, workers int, budget *visitedSet) *numbering {
	shared := workers > 1
	n := &numbering{
		budget: budget, route: s.route, nodes: len(s.route),
		pos: make([]*compTable, len(s.Components)), replay: make([]Replayer, len(s.Components)),
		owner:    -1,
		reqIndex: map[spec.CoreReq]uint32{},
		msgIndex: map[spec.Msg]uint32{}, fifoIndex: map[string]uint32{}, fifoPush: map[uint64]uint32{},
	}
	n.msgGate.shared, n.fifoGate.shared = shared, shared
	n.fifos.add(fifoEntry{})
	n.fifoIndex[""] = 0
	for i, c := range s.Components {
		if _, ok := c.(MemoryCloner); ok {
			if n.owner >= 0 {
				panic("mcheck: more than one component holds the shared memory")
			}
			n.owner = i
		}
		n.replay[i], _ = c.(Replayer)
		n.pos[i] = &compTable{gate: gate{shared: shared}, index: map[string]uint32{}, memo: map[uint64]memoOut{}, budget: budget}
	}
	for _, core := range s.Cores {
		n.coreOff = append(n.coreOff, n.coreWords)
		p := s.componentOf(core.Cache)
		if p >= 0 {
			if _, ok := s.Components[p].(*spec.CacheInst); !ok {
				p = -1
			}
		}
		n.corePos = append(n.corePos, p)
		reqs := make([]uint32, len(core.Prog))
		loads := make([]int, len(core.Prog)+1)
		for pc, r := range core.Prog {
			id, ok := n.reqIndex[r]
			if !ok {
				id = uint32(len(n.reqs))
				n.reqs = append(n.reqs, r)
				n.reqIndex[r] = id
			}
			reqs[pc] = id
			loads[pc+1] = loads[pc]
			if r.Op == spec.OpLoad {
				loads[pc+1]++
			}
		}
		n.progReq = append(n.progReq, reqs)
		n.loadsAt = append(n.loadsAt, loads)
		n.coreWords += 1 + loads[len(core.Prog)]
	}
	return n
}

// position returns the component position serving id; a message to an
// unrouted node is a configuration bug.
func (n *numbering) position(id spec.NodeID) int {
	if id < 0 || int(id) >= len(n.route) || n.route[id] < 0 {
		panic(fmt.Sprintf("mcheck: message to unrouted node %d", id))
	}
	return n.route[id]
}

// chanOf numbers m's channel, preserving chanKey order.
func (n *numbering) chanOf(m *spec.Msg) uint32 {
	n.position(m.Dst)
	if m.Src < 0 || int(m.Src) >= n.nodes || m.VNet < 0 || m.VNet >= spec.NumVNets {
		panic(fmt.Sprintf("mcheck: message %s has no channel", m))
	}
	return uint32((int(m.Src)*n.nodes+int(m.Dst))*int(spec.NumVNets) + int(m.VNet))
}

// chanKey is the inverse of chanOf.
func (n *numbering) chanKey(ch uint32) chanKey {
	v := int(ch) % int(spec.NumVNets)
	sd := int(ch) / int(spec.NumVNets)
	return chanKey{src: spec.NodeID(sd / n.nodes), dst: spec.NodeID(sd % n.nodes), vnet: spec.VNet(v)}
}

// chanDst is chanKey(ch).dst.
func (n *numbering) chanDst(ch uint32) spec.NodeID {
	return spec.NodeID(int(ch) / int(spec.NumVNets) % n.nodes)
}

func (n *numbering) msg(i uint32) *msgEntry   { return n.msgs.at(i) }
func (n *numbering) fifo(i uint32) *fifoEntry { return n.fifos.at(i) }

// msgNum returns m's number, assigning the next one when m is new.
func (n *numbering) msgNum(m spec.Msg) uint32 {
	n.msgGate.lock()
	i, ok := n.msgIndex[m]
	n.msgGate.unlock()
	if ok {
		return i
	}
	ch := n.chanOf(&m)
	n.msgGate.lock()
	defer n.msgGate.unlock()
	if i, ok := n.msgIndex[m]; ok {
		return i
	}
	i = n.msgs.add(msgEntry{m: m, ch: ch})
	n.msgIndex[m] = i
	n.budget.hold(msgBytes)
	return i
}

// push returns the number of FIFO f with message m appended.
func (n *numbering) push(f, m uint32) uint32 {
	key := uint64(f)<<32 | uint64(m)
	n.fifoGate.lock()
	g, ok := n.fifoPush[key]
	n.fifoGate.unlock()
	if ok {
		return g
	}
	n.fifoGate.lock()
	defer n.fifoGate.unlock()
	if g, ok := n.fifoPush[key]; ok {
		return g
	}
	msgs := append(append(make([]uint32, 0, len(n.fifo(f).msgs)+1), n.fifo(f).msgs...), m)
	g = n.internFIFO(msgs)
	n.fifoPush[key] = g
	n.budget.hold(pushBytes)
	return g
}

// internFIFO returns the number of the content msgs, creating it (and
// every suffix it pops to) when new; the caller holds fifoGate.
func (n *numbering) internFIFO(msgs []uint32) uint32 {
	if len(msgs) == 0 {
		return 0
	}
	n.fifoKey = n.fifoKey[:0]
	for _, m := range msgs {
		n.fifoKey = binary.LittleEndian.AppendUint32(n.fifoKey, m)
	}
	if f, ok := n.fifoIndex[string(n.fifoKey)]; ok {
		return f
	}
	key := string(n.fifoKey)
	e := fifoEntry{msgs: msgs, pop: n.internFIFO(msgs[1:])}
	for _, m := range msgs {
		me := n.msg(m)
		for _, id := range [2]spec.NodeID{me.m.Src, me.m.Req} {
			if id >= 0 && int(id) < spec.MaxNodes {
				e.nodes.Add(id)
			}
		}
	}
	f := n.fifos.add(e)
	n.fifoIndex[key] = f
	n.budget.hold(fifoEntryBytes(&e))
	return f
}

// chanFIFO is one nonempty channel of a vector: its number and content.
type chanFIFO struct{ ch, fifo uint32 }

// vec is a decoded search state: component numbers by position, the
// cores' block and the nonempty channels sorted by channel number (the
// System's channel order).
type vec struct {
	comps []uint32
	cores []uint32
	chans []chanFIFO
}

// copyFrom makes v a copy of o, reusing v's buffers.
func (v *vec) copyFrom(o *vec) {
	v.comps = append(v.comps[:0], o.comps...)
	v.cores = append(v.cores[:0], o.cores...)
	v.chans = append(v.chans[:0], o.chans...)
}

// appendKey appends v's key: every number as a uvarint, components,
// cores, the channel count, then channel pairs. The count makes a key
// self-delimiting: no key is a proper prefix of another, which the exact
// set's arena compare relies on.
func (v *vec) appendKey(buf []byte) []byte {
	for _, x := range v.comps {
		buf = binary.AppendUvarint(buf, uint64(x))
	}
	for _, x := range v.cores {
		buf = binary.AppendUvarint(buf, uint64(x))
	}
	buf = binary.AppendUvarint(buf, uint64(len(v.chans)))
	for _, c := range v.chans {
		buf = binary.AppendUvarint(buf, uint64(c.ch))
		buf = binary.AppendUvarint(buf, uint64(c.fifo))
	}
	return buf
}

// decode reads a key appendKey wrote for a search over n.
func (v *vec) decode(key []byte, n *numbering) {
	next := func() uint32 {
		x, k := binary.Uvarint(key)
		if k <= 0 || x > uint64(^uint32(0)) {
			panic("mcheck: state key is malformed")
		}
		key = key[k:]
		return uint32(x)
	}
	v.comps = v.comps[:0]
	for range n.pos {
		v.comps = append(v.comps, next())
	}
	v.cores = v.cores[:0]
	for range n.coreWords {
		v.cores = append(v.cores, next())
	}
	v.chans = v.chans[:0]
	for range next() {
		ch := next()
		v.chans = append(v.chans, chanFIFO{ch, next()})
	}
	if len(key) != 0 {
		panic("mcheck: state key is malformed")
	}
}

// zigzag maps a load value onto a uint32; unzig inverts it.
func zigzag(x int) uint32 {
	if int(int32(x)) != x {
		panic(fmt.Sprintf("mcheck: loaded value %d exceeds 32 bits", x))
	}
	return uint32(int32(x)<<1 ^ int32(x)>>31)
}

func unzig(u uint32) int { return int(int32(u>>1) ^ -int32(u&1)) }

// number returns the vector of s, interning every state it holds. s must
// be the system the tables were built for, or a clone of it.
func (n *numbering) number(s *System) *vec {
	v := &vec{}
	var buf []byte
	for i, c := range s.Components {
		var mem *spec.Memory
		if i == n.owner {
			mem = s.Mem
		}
		v.comps = append(v.comps, n.pos[i].intern(c, mem, &buf))
	}
	for i, core := range s.Cores {
		word := uint32(core.PC) << 1
		if core.Issued {
			word |= 1
		}
		v.cores = append(v.cores, word)
		loads := n.loadsAt[i][len(core.Prog)]
		if len(core.Loads) > loads {
			panic(fmt.Sprintf("mcheck: core %d completed %d loads of a %d-load program", i, len(core.Loads), loads))
		}
		for k := range loads {
			x := uint32(0)
			if k < len(core.Loads) {
				x = zigzag(core.Loads[k])
			}
			v.cores = append(v.cores, x)
		}
	}
	for i := range s.chans {
		f := uint32(0)
		for _, m := range s.chans[i].msgs {
			f = n.push(f, n.msgNum(m))
		}
		v.chans = append(v.chans, chanFIFO{n.msg(n.fifo(f).msgs[0]).ch, f})
	}
	return v
}

// materialize sets s, a clone of the system the tables were built for,
// to the state v.
func (n *numbering) materialize(s *System, v *vec) {
	d := new(spec.Dec)
	for i, c := range s.Components {
		e := n.pos[i].at(v.comps[i])
		mustDecode(d, c, e.img[:e.split])
		if i == n.owner {
			mustDecode(d, s.Mem, e.img[e.split:])
		}
	}
	s.chans = s.chans[:0]
	for _, cf := range v.chans {
		f := n.fifo(cf.fifo)
		msgs := make([]spec.Msg, len(f.msgs))
		for j, m := range f.msgs {
			msgs[j] = n.msg(m).m
		}
		s.chans = append(s.chans, chanState{k: n.chanKey(cf.ch), msgs: msgs})
	}
	for i, core := range s.Cores {
		off := n.coreOff[i]
		core.PC, core.Issued = int(v.cores[off]>>1), v.cores[off]&1 != 0
		core.Loads = core.Loads[:0]
		for k := range n.loadsAt[i][core.PC] {
			core.Loads = append(core.Loads, unzig(v.cores[off+1+k]))
		}
	}
}

// mustDecode decodes a table's image into c through the cursor d; the
// tables only hold images their components wrote, so a failure is a
// codec bug.
func mustDecode(d *spec.Dec, c spec.StateCodec, img []byte) {
	d.Reset(img)
	if err := c.DecodeState(d); err != nil || d.Len() != 0 {
		panic(fmt.Sprintf("mcheck: numbered state image does not decode: %v (%d bytes left)", err, d.Len()))
	}
}
