// Package mcheck is an explicit-state model checker for coherence systems
// built from spec controllers — the stand-in for the Murphi infrastructure
// the HeteroGen artifact uses (§VII-B/§VII-C). It exhaustively explores
// every interleaving of message deliveries, core-request issues and
// (optionally) evictions over small configurations, detecting deadlocks,
// invariant violations and the set of reachable litmus outcomes.
package mcheck

import (
	"fmt"

	"heterogen/internal/spec"
)

// Core drives one cache with a straight-line program, issuing requests one
// at a time (the in-order pipeline of §II-B).
type Core struct {
	Cache  spec.NodeID    // the cache this core issues to
	Prog   []spec.CoreReq // the program
	PC     int            // next op index
	Issued bool           // an op is outstanding at the cache
	Loads  []int          // values observed by completed loads, in order
}

// Done reports whether the core has completed its whole program.
func (c *Core) Done() bool { return c.PC >= len(c.Prog) && !c.Issued }

// chanKey identifies one ordered channel of the interconnect.
type chanKey struct {
	src, dst spec.NodeID
	vnet     spec.VNet
}

// less orders channel keys by (src, dst, vnet).
func (k chanKey) less(o chanKey) bool {
	if k.src != o.src {
		return k.src < o.src
	}
	if k.dst != o.dst {
		return k.dst < o.dst
	}
	return k.vnet < o.vnet
}

// chanState is one nonempty ordered channel. The interconnect is a slice
// of these sorted by key — the handful of active channels a search state
// has iterate in deterministic order without sorting, and Clone copies all
// in-flight messages through a single arena allocation instead of one map
// entry + slice per channel.
type chanState struct {
	k    chanKey
	msgs []spec.Msg
}

// MemoryCloner is implemented by components whose backing memory is shared
// with others; System.Clone clones the memory once and hands it to each.
type MemoryCloner interface {
	CloneWithMemory(mem *spec.Memory) spec.Component
}

// System is one complete machine configuration: components, cores and the
// in-flight messages on ordered per-(src,dst,vnet) channels.
type System struct {
	Components []spec.Component
	Cores      []*Core
	Mem        *spec.Memory // the shared backing store, cloned with the system

	// OnDeliver, when set, observes every successfully delivered message
	// (scripted walks use it to build sequence charts). It is shared by
	// clones; state-space searches should leave it nil.
	OnDeliver func(spec.Msg)

	// route maps NodeID to component index (-1 unrouted). It is immutable
	// after NewSystem and shared by every clone.
	route []int
	chans []chanState // nonempty channels, sorted by key
	// engine names the directory-evaluation strategy backing the system
	// ("interpreted composite", "compiled table"); Result and the CLIs
	// surface it so runs are unambiguous. Empty for plain systems.
	engine string
}

// SetEngine labels the system's directory-evaluation engine; Engine reads
// the label back (empty when never set).
func (s *System) SetEngine(name string) { s.engine = name }

// Engine returns the engine label set with SetEngine.
func (s *System) Engine() string { return s.engine }

// SwapComponent replaces component i with c, which must own exactly the
// same node ids (so the shared route table stays valid).
func (s *System) SwapComponent(i int, c spec.Component) error {
	if i < 0 || i >= len(s.Components) {
		return fmt.Errorf("mcheck: SwapComponent index %d out of range", i)
	}
	old := s.Components[i].OwnedIDs()
	nu := c.OwnedIDs()
	if len(old) != len(nu) {
		return fmt.Errorf("mcheck: SwapComponent id mismatch: %v vs %v", old, nu)
	}
	for j := range old {
		if old[j] != nu[j] {
			return fmt.Errorf("mcheck: SwapComponent id mismatch: %v vs %v", old, nu)
		}
	}
	s.Components[i] = c
	return nil
}

// NewSystem assembles a system from components, cores and the shared
// memory the directories were built over.
func NewSystem(components []spec.Component, cores []*Core, mem *spec.Memory) *System {
	s := &System{Components: components, Cores: cores, Mem: mem}
	maxID := spec.NodeID(-1)
	for _, c := range components {
		for _, id := range c.OwnedIDs() {
			if id > maxID {
				maxID = id
			}
		}
	}
	s.route = make([]int, maxID+1)
	for i := range s.route {
		s.route[i] = -1
	}
	for i, c := range components {
		for _, id := range c.OwnedIDs() {
			s.route[id] = i
		}
	}
	return s
}

// NewHomogeneous builds the standard single-cluster configuration: nCaches
// caches of protocol p (node ids 0..nCaches-1) and one directory (node id
// nCaches), plus one core per cache. Programs are attached afterwards with
// SetPrograms.
func NewHomogeneous(p *spec.Protocol, nCaches int) *System {
	mem := spec.NewMemory()
	dirID := spec.NodeID(nCaches)
	comps := make([]spec.Component, 0, nCaches+1)
	cores := make([]*Core, 0, nCaches)
	for i := 0; i < nCaches; i++ {
		comps = append(comps, spec.NewCacheInst(spec.NodeID(i), dirID, p))
		cores = append(cores, &Core{Cache: spec.NodeID(i)})
	}
	comps = append(comps, spec.NewDirInst(dirID, p, mem))
	return NewSystem(comps, cores, mem)
}

// SetPrograms assigns one program per core (missing entries leave the core
// idle).
func (s *System) SetPrograms(progs [][]spec.CoreReq) {
	for i, p := range progs {
		if i < len(s.Cores) {
			s.Cores[i].Prog = p
		}
	}
}

// componentOf returns the component index serving id, or -1.
func (s *System) componentOf(id spec.NodeID) int {
	if id < 0 || int(id) >= len(s.route) {
		return -1
	}
	return s.route[id]
}

// Cache returns the CacheInst serving the given node id, or nil.
func (s *System) Cache(id spec.NodeID) *spec.CacheInst {
	if i := s.componentOf(id); i >= 0 {
		if c, ok := s.Components[i].(*spec.CacheInst); ok {
			return c
		}
	}
	return nil
}

// chanIdx returns the index of k in chans, or the insertion point with
// found=false.
func (s *System) chanIdx(k chanKey) (int, bool) {
	for i := range s.chans {
		if s.chans[i].k == k {
			return i, true
		}
		if k.less(s.chans[i].k) {
			return i, false
		}
	}
	return len(s.chans), false
}

// Send implements spec.Env: it enqueues m on its channel. Components
// send through the System itself, so Apply hands them an Env without
// allocating one.
func (s *System) Send(m spec.Msg) {
	k := chanKey{m.Src, m.Dst, m.VNet}
	i, ok := s.chanIdx(k)
	if ok {
		s.chans[i].msgs = append(s.chans[i].msgs, m)
		return
	}
	s.chans = append(s.chans, chanState{})
	copy(s.chans[i+1:], s.chans[i:])
	s.chans[i] = chanState{k: k, msgs: []spec.Msg{m}}
}

// Clone deep-copies the system. The route table is shared (immutable), the
// cores copy through one backing array, and every in-flight message copies
// into a single arena — O(components) allocations per clone, which is the
// model checker's per-successor cost.
func (s *System) Clone() *System {
	mem := s.Mem.Clone()
	comps := make([]spec.Component, len(s.Components))
	for i, c := range s.Components {
		if mc, ok := c.(MemoryCloner); ok {
			comps[i] = mc.CloneWithMemory(mem)
		} else {
			comps[i] = c.Clone()
		}
	}
	coreArr := make([]Core, len(s.Cores))
	cores := make([]*Core, len(s.Cores))
	nLoads := 0
	for _, c := range s.Cores {
		nLoads += len(c.Loads)
	}
	var loadArena []int
	if nLoads > 0 {
		loadArena = make([]int, 0, nLoads)
	}
	for i, c := range s.Cores {
		coreArr[i] = *c
		// Never alias the source's Loads backing array: an empty slice can
		// still carry capacity (materialized states reuse allocations), and
		// a shared backing array races once parent and clone both append.
		coreArr[i].Loads = nil
		if len(c.Loads) > 0 {
			start := len(loadArena)
			loadArena = append(loadArena, c.Loads...)
			coreArr[i].Loads = loadArena[start:len(loadArena):len(loadArena)]
		}
		cores[i] = &coreArr[i]
	}
	cp := &System{Components: comps, Cores: cores, Mem: mem,
		OnDeliver: s.OnDeliver, route: s.route, engine: s.engine}
	if len(s.chans) > 0 {
		total := 0
		for i := range s.chans {
			total += len(s.chans[i].msgs)
		}
		arena := make([]spec.Msg, 0, total)
		cp.chans = make([]chanState, len(s.chans))
		for i := range s.chans {
			start := len(arena)
			arena = append(arena, s.chans[i].msgs...)
			// Full three-index subslice: appending to one channel's queue
			// reallocates instead of clobbering its arena neighbor.
			cp.chans[i] = chanState{k: s.chans[i].k, msgs: arena[start:len(arena):len(arena)]}
		}
	}
	return cp
}

// chanKeys returns the nonempty channel keys in deterministic order.
func (s *System) chanKeys() []chanKey {
	keys := make([]chanKey, 0, len(s.chans))
	for i := range s.chans {
		keys = append(keys, s.chans[i].k)
	}
	return keys
}

// syncCores advances cores whose issued op has completed.
func (s *System) syncCores() {
	for _, core := range s.Cores {
		if !core.Issued {
			continue
		}
		cache := s.Cache(core.Cache)
		if cache == nil || !cache.Idle() {
			continue
		}
		op := core.Prog[core.PC]
		if op.Op == spec.OpLoad {
			core.Loads = append(core.Loads, cache.LastLoad())
		}
		core.PC++
		core.Issued = false
	}
}

// Warm preloads every cache with the given addresses by issuing loads and
// draining the interconnect to quiescence — the litmus-testing methodology
// of §VII-B ("we preload the caches with the initial values"). Load results
// are discarded.
func (s *System) Warm(addrs []spec.Addr) error {
	for _, core := range s.Cores {
		cache := s.Cache(core.Cache)
		if cache == nil {
			continue
		}
		for _, a := range addrs {
			if !cache.Issue(s, spec.CoreReq{Op: spec.OpLoad, Addr: a}) {
				return fmt.Errorf("mcheck: warm load of a%d refused by cache %d", a, cache.ID())
			}
			if err := s.Drain(); err != nil {
				return err
			}
			if !cache.Idle() {
				return fmt.Errorf("mcheck: warm load of a%d never completed at cache %d", a, cache.ID())
			}
		}
	}
	return nil
}

// Drain delivers queued messages in deterministic order until the
// interconnect is empty.
func (s *System) Drain() error {
	for {
		keys := s.chanKeys()
		if len(keys) == 0 {
			return nil
		}
		progress := false
		for _, k := range keys {
			if s.Apply(Move{Kind: MoveDeliver, Chan: k}) {
				progress = true
				break
			}
		}
		if !progress {
			return fmt.Errorf("mcheck: drain stuck with %d busy channels", len(keys))
		}
	}
}

// Quiescent reports whether all channels are empty and all cores done.
func (s *System) Quiescent() bool {
	if len(s.chans) > 0 {
		return false
	}
	for _, c := range s.Cores {
		if !c.Done() {
			return false
		}
	}
	return true
}

// Snapshot renders the state as canonical text: the deadlock report's
// DeadlockAt and the diagnostics' form. It distinguishes exactly the
// states EncodeBinary distinguishes.
func (s *System) Snapshot() string {
	var b spec.SnapshotWriter
	for _, c := range s.Components {
		c.Snapshot(&b)
	}
	s.Mem.Snapshot(&b)
	v := s.vocab()
	for i := range s.chans {
		k := s.chans[i].k
		fmt.Fprintf(&b, "ch%d-%d-%d[", k.src, k.dst, k.vnet)
		for _, m := range s.chans[i].msgs {
			fmt.Fprintf(&b, "%s|", v.Format(m))
		}
		b.WriteString("]")
	}
	for i, c := range s.Cores {
		fmt.Fprintf(&b, "core%d{pc=%d,iss=%t,ld=%v}", i, c.PC, c.Issued, c.Loads)
	}
	return b.String()
}

// vocab returns the vocabulary the first component that names its
// messages (spec.Namer) numbers them in: the one the whole system's
// messages share, as the components run one protocol or one fusion.
func (s *System) vocab() *spec.Vocab {
	for _, c := range s.Components {
		if n, ok := c.(spec.Namer); ok {
			return n.Vocab()
		}
	}
	return nil
}

// Move is one enabled step of the system: a message delivery, a core issue
// or an eviction.
type Move struct {
	Kind  MoveKind
	Chan  chanKey // deliveries
	Core  int     // issues
	Cache spec.NodeID
	Addr  spec.Addr // evictions
}

// MoveKind classifies a Move.
type MoveKind int

// Move kinds.
const (
	MoveDeliver MoveKind = iota
	MoveIssue
	MoveEvict
)

func (m Move) String() string {
	switch m.Kind {
	case MoveDeliver:
		return fmt.Sprintf("deliver %d->%d vnet%d", m.Chan.src, m.Chan.dst, m.Chan.vnet)
	case MoveIssue:
		return fmt.Sprintf("issue core%d", m.Core)
	case MoveEvict:
		return fmt.Sprintf("evict cache%d a%d", m.Cache, m.Addr)
	}
	return "move?"
}

// Moves enumerates the enabled moves of the current state. evictions
// toggles exploration of spontaneous replacements.
func (s *System) Moves(evictions bool) []Move {
	return s.AppendMoves(nil, evictions)
}

// AppendMoves appends the enabled moves to out and returns the extended
// slice — the search loop reuses one scratch slice across expansions
// instead of allocating a fresh move list per state. Deliveries are keyed
// directly off the sorted nonempty-channel slice; issues and evictions are
// probed afresh at every call.
func (s *System) AppendMoves(out []Move, evictions bool) []Move {
	for i := range s.chans {
		out = append(out, Move{Kind: MoveDeliver, Chan: s.chans[i].k})
	}
	for i, core := range s.Cores {
		if core.Issued || core.PC >= len(core.Prog) {
			continue
		}
		if cache := s.Cache(core.Cache); cache != nil && cache.CanIssue(core.Prog[core.PC]) {
			out = append(out, Move{Kind: MoveIssue, Core: i})
		}
	}
	if evictions {
		for _, c := range s.Components {
			cache, ok := c.(*spec.CacheInst)
			if !ok || !cache.Idle() {
				continue
			}
			proto := cache.Protocol().Cache
			for i := 0; i < cache.NumLines(); i++ {
				a := cache.AddrAt(i)
				if st := cache.LineState(a); proto.StableID(st) && st != proto.InitID() {
					out = append(out, Move{Kind: MoveEvict, Cache: cache.ID(), Addr: a})
				}
			}
		}
	}
	return out
}

// Apply executes the move in place. It returns false if the move stalled
// (delivery refused); the system is unchanged in that case except for
// harmless line materialization.
func (s *System) Apply(m Move) bool {
	switch m.Kind {
	case MoveDeliver:
		ci, ok := s.chanIdx(m.Chan)
		if !ok {
			return false
		}
		msg := s.chans[ci].msgs[0]
		idx := s.componentOf(msg.Dst)
		if idx < 0 {
			panic(fmt.Sprintf("mcheck: message to unrouted node %d", msg.Dst))
		}
		if !s.Components[idx].Deliver(s, msg) {
			return false
		}
		if s.OnDeliver != nil {
			s.OnDeliver(msg)
		}
		// Delivery may have sent messages, inserting channels and shifting
		// the slice: re-find our channel before popping its head.
		ci, _ = s.chanIdx(m.Chan)
		if q := s.chans[ci].msgs; len(q) == 1 {
			s.chans = append(s.chans[:ci], s.chans[ci+1:]...)
		} else {
			s.chans[ci].msgs = q[:copy(q, q[1:])]
		}
	case MoveIssue:
		core := s.Cores[m.Core]
		cache := s.Cache(core.Cache)
		if cache == nil || !cache.Issue(s, core.Prog[core.PC]) {
			return false
		}
		core.Issued = true
	case MoveEvict:
		cache := s.Cache(m.Cache)
		if cache == nil || !cache.Evict(s, m.Addr) {
			return false
		}
	}
	s.syncCores()
	return true
}
