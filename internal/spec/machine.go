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

	// The runtime form, built once by Protocol.Freeze (compile): states
	// and message types numbered, and the rows laid out densely by number.
	names    []State // by StateID − 1: States() order
	init     StateID // Init's number
	stable   []bool  // by StateID
	nMsgs    int     // the vocabulary's size
	msgOff   []int32 // [(StateID−1)·nMsgs + MsgID]: where that slot's rows start in msgSteps
	msgSteps []*Step // the message rows grouped by slot, in row order within one
	opRows   []*Step // [(StateID−1)·numCoreOps + CoreOp]
	syncs    [numCoreOps]*syncRule
	invFill  []bool // by StateID: InvalidateOnFill
	hasFill  bool

	sendLocal  bool // see SendLocality
	invSharers bool // see InvalidatesSharers
}

// numCoreOps sizes the CoreOp-indexed rows.
const numCoreOps = int(OpEvict) + 1

// Step is one row compiled onto its machine's numbering: the next state,
// the condition and every action's message as numbers. Row keeps the
// names for traces and error text.
type Step struct {
	Row  *Transition
	Next StateID
	Cond Cond
	Acts []Act
}

// Act is one action with its message numbered: Type is Action.Msg's MsgID
// and VNet its virtual network in the sending protocol, so a send looks
// nothing up.
type Act struct {
	Action
	Type MsgID
	VNet VNet
}

// syncRule is a SyncBehavior over state numbers.
type syncRule struct {
	invalidate, writeback []bool // by StateID
	wait                  bool
}

// msgKind is a message type's number and virtual network in one frozen
// protocol.
type msgKind struct {
	id   MsgID
	vnet VNet
}

// compile builds the runtime form for nMsgs message numbers; kinds numbers
// the protocol's message types (EvLastAck included).
func (m *Machine) compile(nMsgs int, kinds map[MsgType]msgKind) {
	m.names = m.States()
	ids := make(map[State]StateID, len(m.names))
	for i, s := range m.names {
		ids[s] = StateID(i + 1)
	}
	mask := func(states []State) []bool {
		out := make([]bool, len(m.names)+1)
		for _, s := range states {
			out[ids[s]] = true
		}
		out[NoState] = false
		return out
	}
	m.init = ids[m.Init]
	m.stable = mask(m.Stable)
	m.invSharers = false
	m.nMsgs = nMsgs
	nActs := 0
	for i := range m.Rows {
		nActs += len(m.Rows[i].Actions)
	}
	steps := make([]Step, len(m.Rows))
	acts := make([]Act, 0, nActs)
	slot := make([]int32, len(m.Rows)) // each row's message slot, or -1
	m.msgOff = make([]int32, len(m.names)*m.nMsgs+1)
	m.opRows = make([]*Step, len(m.names)*numCoreOps)
	for i := range m.Rows {
		t := &m.Rows[i]
		start := len(acts)
		for _, a := range t.Actions {
			act := Act{Action: a, Type: NoMsg, VNet: VResp}
			if k, ok := kinds[a.Msg]; ok {
				act.Type, act.VNet = k.id, k.vnet
			}
			acts = append(acts, act)
			m.invSharers = m.invSharers || a.Op == ActInvSharers
		}
		steps[i] = Step{Row: t, Next: ids[t.Next], Cond: t.On.Cond, Acts: acts[start:len(acts):len(acts)]}
		slot[i] = -1
		from := int(ids[t.From]) - 1
		switch {
		case from < 0:
		case t.On.IsCore():
			if int(t.On.Core) < numCoreOps {
				m.opRows[from*numCoreOps+int(t.On.Core)] = &steps[i]
			}
		default:
			if k, ok := kinds[t.On.Msg]; ok {
				slot[i] = int32(from*m.nMsgs + int(k.id))
				m.msgOff[slot[i]+1]++
			}
		}
	}
	for k := 1; k < len(m.msgOff); k++ {
		m.msgOff[k] += m.msgOff[k-1]
	}
	m.msgSteps = make([]*Step, m.msgOff[len(m.msgOff)-1])
	for i, k := range slot {
		if k >= 0 {
			m.msgSteps[m.msgOff[k]] = &steps[i]
			m.msgOff[k]++
		}
	}
	// The fill advanced each start to the next slot's start: shift back.
	copy(m.msgOff[1:], m.msgOff[:len(m.msgOff)-1])
	m.msgOff[0] = 0
	m.syncs = [numCoreOps]*syncRule{}
	for op, sb := range m.Sync {
		if int(op) < numCoreOps {
			m.syncs[op] = &syncRule{invalidate: mask(sb.Invalidate), writeback: mask(sb.Writeback), wait: sb.WaitOutstanding}
		}
	}
	m.invFill = mask(m.InvalidateOnFill)
	m.hasFill = len(m.InvalidateOnFill) > 0
	m.sendLocal = computeSendLocality(m.Rows)
}

// NumStates returns the number of states the machine mentions.
func (m *Machine) NumStates() int { return len(m.names) }

// InitID returns the number of the initial state.
func (m *Machine) InitID() StateID { return m.init }

// StateName returns the name of s ("" for NoState or a number out of
// range).
func (m *Machine) StateName(s StateID) State {
	if s == NoState || int(s) > len(m.names) {
		return ""
	}
	return m.names[s-1]
}

// StateID returns the number of the named state, or NoState. It searches
// the names, so it serves set-up code, not delivery paths.
func (m *Machine) StateID(name State) StateID {
	for i, s := range m.names {
		if s == name {
			return StateID(i + 1)
		}
	}
	return NoState
}

// StableID reports whether s is a declared stable state.
func (m *Machine) StableID(s StateID) bool {
	return int(s) < len(m.stable) && m.stable[s]
}

// CoreStep returns the row for a core op in state s, or nil (the core
// blocks).
func (m *Machine) CoreStep(s StateID, op CoreOp) *Step {
	i := int(s) - 1
	if i < 0 || i >= len(m.names) || int(op) >= numCoreOps {
		return nil
	}
	return m.opRows[i*numCoreOps+int(op)]
}

// MsgCtx supplies the line facts conditional rows discriminate on.
type MsgCtx struct {
	// IsOwner reports whether the message source is the line's owner.
	IsOwner bool
	// IsLastSharer reports whether the message source is the only sharer.
	IsLastSharer bool
}

// MsgStep returns the row matching the message in state s, or nil (the
// message stalls). Conditional rows are evaluated before unconditional
// ones; ctx carries the directory-line facts conditions need (caches
// pass the zero MsgCtx).
func (m *Machine) MsgStep(s StateID, msg *Msg, ctx MsgCtx) *Step {
	i := int(s) - 1
	if i < 0 || i >= len(m.names) || int(msg.Type) >= m.nMsgs {
		return nil
	}
	var fallback *Step
	k := i*m.nMsgs + int(msg.Type)
	for _, t := range m.msgSteps[m.msgOff[k]:m.msgOff[k+1]] {
		switch t.Cond {
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

// OnCoreOp returns the row for a core op in the named state, or nil. It
// scans Rows: the specification layer's lookup (fusion analysis, export),
// not the runtime's.
func (m *Machine) OnCoreOp(s State, op CoreOp) *Transition {
	var out *Transition
	for i := range m.Rows {
		if t := &m.Rows[i]; t.From == s && t.On.Core == op && t.On.IsCore() {
			out = t
		}
	}
	return out
}

// IsStable reports whether the named state is a declared stable state.
func (m *Machine) IsStable(s State) bool {
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
	seen := make(map[key]bool, len(m.Rows))
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
	// A StateID numbers every state; the row count bounds the states
	// before counting them.
	const maxStates = int(^StateID(0))
	if 2*len(m.Rows)+len(m.Stable)+1 > maxStates && len(m.States()) > maxStates {
		return fmt.Errorf("spec: machine %s has more than %d states", m.Name, maxStates)
	}
	return nil
}

func (m *Machine) checkAction(a Action) error {
	var cacheOnly, dirOnly bool
	switch a.Op {
	case ActStoreValue, ActLoadMsgData, ActSetAcks, ActCoreDone:
		cacheOnly = true
	case ActInvSharers, ActAddSharer, ActRemoveSharer, ActClearSharers,
		ActOwnerToSharers, ActSetOwner, ActClearOwner, ActWriteMem:
		dirOnly = true
	}
	switch {
	case m.Kind == CacheCtrl && dirOnly:
		return fmt.Errorf("directory action %s in cache controller", a)
	case m.Kind == DirCtrl && cacheOnly:
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

// Clone deep-copies the machine's specification; the copy is unfrozen
// (Protocol.Freeze numbers it afresh). Fusion clones its inputs to number
// them under the fusion's vocabulary.
func (m *Machine) Clone() *Machine {
	cp := &Machine{
		Name:   m.Name,
		Kind:   m.Kind,
		Init:   m.Init,
		Flat:   m.Flat,
		Stable: append([]State(nil), m.Stable...),
		Rows:   make([]Transition, len(m.Rows)),
	}
	nActs := 0
	for i := range m.Rows {
		nActs += len(m.Rows[i].Actions)
	}
	acts := make([]Action, 0, nActs) // one backing array for every row's actions
	for i, t := range m.Rows {
		start := len(acts)
		acts = append(acts, t.Actions...)
		cp.Rows[i] = Transition{From: t.From, On: t.On, Next: t.Next, Actions: acts[start:len(acts):len(acts)]}
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
