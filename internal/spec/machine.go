package spec

import (
	"fmt"
	"sort"
	"strings"
)

// MachineKind distinguishes cache controllers from directory controllers.
type MachineKind int

const (
	// CacheCtrl is a per-core private cache controller.
	CacheCtrl MachineKind = iota
	// DirCtrl is a per-cluster directory controller.
	DirCtrl
)

func (k MachineKind) String() string {
	if k == CacheCtrl {
		return "cache"
	}
	return "directory"
}

// Transition is one row of a controller table: in state From, on Event,
// perform Actions and move to Next.
type Transition struct {
	From    State
	On      Event
	Actions []Action
	Next    State
}

func (t Transition) String() string {
	acts := make([]string, len(t.Actions))
	for i, a := range t.Actions {
		acts[i] = a.String()
	}
	return fmt.Sprintf("%s --%s/[%s]--> %s", t.From, t.On, strings.Join(acts, " "), t.Next)
}

// SyncBehavior describes how a cache controller implements a whole-cache
// synchronization operation (acquire / release / fence). These are the
// self-invalidation and write-back behaviors that distinguish the relaxed
// protocols of Table I.
type SyncBehavior struct {
	// Invalidate lists stable states whose lines are silently invalidated
	// (self-invalidation, e.g. RCC's acquire).
	Invalidate []State
	// Writeback lists stable states whose lines are evicted via their
	// OpEvict transition (dirty write-back, e.g. RCC's release).
	Writeback []State
	// WaitOutstanding makes the operation complete only once every line is
	// back in a stable state (draining early-acknowledged writes, e.g. the
	// GPU protocol's release waiting for write-through acks).
	WaitOutstanding bool
}

// Machine is a controller specification: a table-driven FSM.
type Machine struct {
	Name   string
	Kind   MachineKind
	Init   State
	Stable []State // stable states; everything else appearing in rows is transient
	Rows   []Transition

	// Sync maps synchronization core ops to their whole-cache behavior
	// (cache controllers only). Absent entries complete as no-ops.
	Sync map[CoreOp]SyncBehavior
	// InvalidateOnFill lists stable states whose *other* lines are
	// self-invalidated whenever any line performs a data fill
	// (TSO-CC-basic's conservative staleness bound).
	InvalidateOnFill []State

	// Flat marks a machine projected from a compiled fusion's flat
	// transition table. A flat machine is an observation, not an executable
	// controller: its rows carry no actions, and the same (state, event)
	// pair may appear with several next states — the projection collapses
	// transducer states that differ only in hidden context (other
	// addresses, memory) onto one composite local state. Validate relaxes
	// the duplicate-row check accordingly.
	Flat bool

	index     map[State]map[MsgType][]*Transition
	core      map[State]map[CoreOp]*Transition
	stateIdx  map[State]int // dense state numbering for binary encoding
	stateList []State       // inverse of stateIdx, for binary decoding

	// Dense per-state lookup rows built alongside the maps: OnCoreOp and
	// IsStable sit on the model checker's successor-generation path, where
	// one map probe into a fixed-size row beats two chained map probes and
	// a linear stable-list scan.
	coreRows   map[State]*coreRow
	stableSet  map[State]bool
	sendLocal  bool // see SendLocality
	invSharers bool // see InvalidatesSharers
}

// coreRow is the dense CoreOp-indexed transition row of one state.
type coreRow [int(OpEvict) + 1]*Transition

// Freeze eagerly builds the lookup indexes. The indexes are otherwise
// built lazily on first lookup, which is a data race when clones sharing
// one Machine are exercised from several goroutines — the model checker
// freezes every protocol before going parallel.
func (m *Machine) Freeze() { m.buildIndex() }

// buildIndex populates lookup maps; called lazily.
func (m *Machine) buildIndex() {
	if m.index != nil {
		return
	}
	m.index = map[State]map[MsgType][]*Transition{}
	m.core = map[State]map[CoreOp]*Transition{}
	for i := range m.Rows {
		t := &m.Rows[i]
		if t.On.IsCore() {
			byOp := m.core[t.From]
			if byOp == nil {
				byOp = map[CoreOp]*Transition{}
				m.core[t.From] = byOp
			}
			byOp[t.On.Core] = t
			continue
		}
		byMsg := m.index[t.From]
		if byMsg == nil {
			byMsg = map[MsgType][]*Transition{}
			m.index[t.From] = byMsg
		}
		byMsg[t.On.Msg] = append(byMsg[t.On.Msg], t)
	}
	m.stateList = m.States()
	m.stateIdx = make(map[State]int, len(m.stateList))
	for i, s := range m.stateList {
		m.stateIdx[s] = i
	}
	m.coreRows = make(map[State]*coreRow, len(m.core))
	for s, byOp := range m.core {
		row := &coreRow{}
		for op, t := range byOp {
			if int(op) < len(row) {
				row[op] = t
			}
		}
		m.coreRows[s] = row
	}
	m.stableSet = make(map[State]bool, len(m.Stable))
	for _, s := range m.Stable {
		m.stableSet[s] = true
	}
	m.sendLocal = computeSendLocality(m.Rows)
	m.invSharers = false
	for i := range m.Rows {
		for _, a := range m.Rows[i].Actions {
			if a.Op == ActInvSharers {
				m.invSharers = true
			}
		}
	}
}

// StateIndex returns the dense index of s in the machine's States()
// ordering, or -1 for a state the machine never mentions. The binary state
// encoder writes this index instead of the state's name — a varint instead
// of a length-prefixed string on the model checker's hot path.
func (m *Machine) StateIndex(s State) int {
	m.buildIndex()
	if i, ok := m.stateIdx[s]; ok {
		return i
	}
	return -1
}

// StateAt is the inverse of StateIndex: the state with dense index i in the
// States() ordering, or "" for an out-of-range index. The binary state
// decoder maps encoded indexes back to state names through it.
func (m *Machine) StateAt(i int) State {
	m.buildIndex()
	if i < 0 || i >= len(m.stateList) {
		return ""
	}
	return m.stateList[i]
}

// OnCoreOp returns the transition for a core op in the given state, or nil
// (the core blocks).
func (m *Machine) OnCoreOp(s State, op CoreOp) *Transition {
	m.buildIndex()
	if row := m.coreRows[s]; row != nil && int(op) < len(row) {
		return row[op]
	}
	return nil
}

// MsgCtx supplies the line facts conditional rows discriminate on.
type MsgCtx struct {
	// IsOwner reports whether the message source is the line's owner.
	IsOwner bool
	// IsLastSharer reports whether the message source is the only sharer.
	IsLastSharer bool
}

// OnMessage returns the transition matching the message in the given state,
// or nil (the message stalls). Conditional rows are evaluated before
// unconditional ones; ctx carries the directory-line facts conditions need
// (caches pass the zero MsgCtx).
func (m *Machine) OnMessage(s State, msg *Msg, ctx MsgCtx) *Transition {
	m.buildIndex()
	rows := m.index[s][msg.Type]
	var fallback *Transition
	for _, t := range rows {
		switch t.On.Cond {
		case CondAny:
			if fallback == nil {
				fallback = t
			}
		case CondAckZero:
			if msg.Ack == 0 {
				return t
			}
		case CondAckPos:
			if msg.Ack > 0 {
				return t
			}
		case CondFromOwner:
			if ctx.IsOwner {
				return t
			}
		case CondNotOwner:
			if !ctx.IsOwner {
				return t
			}
		case CondLastSharer:
			if ctx.IsLastSharer {
				return t
			}
		case CondNotLastSharer:
			if !ctx.IsLastSharer {
				return t
			}
		}
	}
	return fallback
}

// IsStable reports whether s is a declared stable state. The dense set is
// only consulted once the lookup index exists: the fusion engine mutates
// Stable on cloned machines before their first lookup, and triggering the
// index build from here would freeze a half-rewritten table.
func (m *Machine) IsStable(s State) bool {
	if m.stableSet != nil {
		return m.stableSet[s]
	}
	for _, st := range m.Stable {
		if st == s {
			return true
		}
	}
	return false
}

// States returns every state mentioned by the machine, stable first, then
// transient in name order.
func (m *Machine) States() []State {
	seen := map[State]bool{}
	var out []State
	for _, s := range m.Stable {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	var trans []State
	add := func(s State) {
		if s != "" && !seen[s] {
			seen[s] = true
			trans = append(trans, s)
		}
	}
	add(m.Init)
	for _, t := range m.Rows {
		add(t.From)
		add(t.Next)
	}
	sort.Slice(trans, func(i, j int) bool { return trans[i] < trans[j] })
	return append(out, trans...)
}

// TransitionsFrom returns all rows departing s.
func (m *Machine) TransitionsFrom(s State) []*Transition {
	var out []*Transition
	for i := range m.Rows {
		if m.Rows[i].From == s {
			out = append(out, &m.Rows[i])
		}
	}
	return out
}

// Validate checks structural sanity: a declared init state, stable states
// declared, no duplicate (state, event) rows, actions appropriate for the
// machine kind.
func (m *Machine) Validate() error {
	if m.Init == "" {
		return fmt.Errorf("spec: machine %s has no init state", m.Name)
	}
	if !m.IsStable(m.Init) {
		return fmt.Errorf("spec: machine %s init state %s is not stable", m.Name, m.Init)
	}
	type key struct {
		s  State
		ev Event
	}
	seen := map[key]bool{}
	for _, t := range m.Rows {
		k := key{t.From, t.On}
		if seen[k] && !m.Flat {
			return fmt.Errorf("spec: machine %s has duplicate row %s on %s", m.Name, t.From, t.On)
		}
		seen[k] = true
		if t.Next == "" {
			return fmt.Errorf("spec: machine %s row %s has empty next state", m.Name, t)
		}
		for _, a := range t.Actions {
			if err := m.checkAction(a); err != nil {
				return fmt.Errorf("spec: machine %s row %s: %w", m.Name, t, err)
			}
		}
	}
	if m.Kind == DirCtrl && (len(m.Sync) > 0 || len(m.InvalidateOnFill) > 0) {
		return fmt.Errorf("spec: directory %s declares cache-only hooks", m.Name)
	}
	return nil
}

func (m *Machine) checkAction(a Action) error {
	cacheOnly := map[ActionOp]bool{ActStoreValue: true, ActLoadMsgData: true, ActSetAcks: true, ActCoreDone: true}
	dirOnly := map[ActionOp]bool{ActInvSharers: true, ActAddSharer: true, ActRemoveSharer: true,
		ActClearSharers: true, ActOwnerToSharers: true, ActSetOwner: true, ActClearOwner: true, ActWriteMem: true}
	switch {
	case m.Kind == CacheCtrl && dirOnly[a.Op]:
		return fmt.Errorf("directory action %s in cache controller", a)
	case m.Kind == DirCtrl && cacheOnly[a.Op]:
		return fmt.Errorf("cache action %s in directory controller", a)
	}
	if a.Op == ActSend {
		if m.Kind == CacheCtrl && (a.Dst == ToOwner || a.Payload == PayloadMem) {
			return fmt.Errorf("cache send %s uses directory-only destination or payload", a)
		}
		if m.Kind == DirCtrl && (a.Dst == ToDir || a.Payload == PayloadLine || a.Payload == PayloadStore) {
			return fmt.Errorf("directory send %s uses cache-only destination or payload", a)
		}
	}
	return nil
}

// Clone deep-copies the machine (indexes are rebuilt lazily). Fusion clones
// input machines before rewriting message names.
func (m *Machine) Clone() *Machine {
	cp := &Machine{
		Name:   m.Name,
		Kind:   m.Kind,
		Init:   m.Init,
		Flat:   m.Flat,
		Stable: append([]State(nil), m.Stable...),
		Rows:   make([]Transition, len(m.Rows)),
	}
	for i, t := range m.Rows {
		cp.Rows[i] = Transition{From: t.From, On: t.On, Next: t.Next,
			Actions: append([]Action(nil), t.Actions...)}
	}
	if m.Sync != nil {
		cp.Sync = map[CoreOp]SyncBehavior{}
		for op, sb := range m.Sync {
			cp.Sync[op] = SyncBehavior{
				Invalidate:      append([]State(nil), sb.Invalidate...),
				Writeback:       append([]State(nil), sb.Writeback...),
				WaitOutstanding: sb.WaitOutstanding,
			}
		}
	}
	cp.InvalidateOnFill = append([]State(nil), m.InvalidateOnFill...)
	return cp
}

// Format renders the machine as a human-readable table (used by the CLI and
// by FSM dumps in EXPERIMENTS.md).
func (m *Machine) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s: init=%s stable=%v\n", m.Kind, m.Name, m.Init, m.Stable)
	for _, t := range m.Rows {
		fmt.Fprintf(&b, "  %s\n", t.String())
	}
	return b.String()
}
