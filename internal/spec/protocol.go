package spec

import (
	"fmt"
	"sort"

	"heterogen/internal/memmodel"
)

// ProtocolClass flags protocol families HeteroGen cannot fuse (§VI-E1).
type ProtocolClass int

const (
	// ClassInvalidation covers writer-initiated invalidation and
	// self-invalidation protocols — everything HeteroGen supports.
	ClassInvalidation ProtocolClass = iota
	// ClassUpdate marks update-based protocols (unsupported: the notion of
	// write permissions is incompatible with propagating every write).
	ClassUpdate
	// ClassLease marks lease/timestamp protocols such as Tardis
	// (unsupported: read permissions are incompatible with expiring leases).
	ClassLease
)

func (c ProtocolClass) String() string {
	switch c {
	case ClassInvalidation:
		return "invalidation"
	case ClassUpdate:
		return "update"
	case ClassLease:
		return "lease"
	}
	return fmt.Sprintf("ProtocolClass(%d)", int(c))
}

// Protocol bundles one cluster's coherence protocol: its cache and directory
// controllers, message declarations, and the consistency model its coherence
// interface enforces (§II-B).
type Protocol struct {
	Name  string
	Model memmodel.ID
	Class ProtocolClass
	Cache *Machine
	Dir   *Machine
	// Msgs declares every message type the protocol uses.
	Msgs map[MsgType]MsgInfo
	// AckType is the invalidation-acknowledgment message counted by the
	// runtime's automatic ack bookkeeping ("" if the protocol has none).
	AckType MsgType

	// The runtime numbering, set once by Freeze or FreezeWith: the
	// vocabulary messages are numbered in, AckType's number (NoMsg
	// without one) and EvLastAck's.
	vocab     *Vocab
	ackID     MsgID
	lastAckID MsgID
}

// EvLastAck is the runtime-synthesized event delivered when a line's
// invalidation-ack balance reaches zero while armed. Protocol tables
// reference it via OnLastAck.
const EvLastAck MsgType = "__lastack"

// OnLastAck is the event for the final invalidation acknowledgment.
func OnLastAck() Event { return OnMsg(EvLastAck) }

// Validate checks the protocol's machines and message references.
//
// A flat protocol — the projection of a compiled fusion's merged
// directory, marked by Dir.Flat — is directory-only: Cache may be nil and
// Model may be empty (the fused clusters enforce their own models; the
// projection asserts none). All other structural checks still apply.
func (p *Protocol) Validate() error {
	flat := p.Dir != nil && p.Dir.Flat
	if p.Dir == nil || (p.Cache == nil && !flat) {
		return fmt.Errorf("spec: protocol %s missing a controller", p.Name)
	}
	if (p.Cache != nil && p.Cache.Kind != CacheCtrl) || p.Dir.Kind != DirCtrl {
		return fmt.Errorf("spec: protocol %s controllers have wrong kinds", p.Name)
	}
	if p.Cache != nil {
		if err := p.Cache.Validate(); err != nil {
			return err
		}
	}
	if err := p.Dir.Validate(); err != nil {
		return err
	}
	if p.Model != "" || !flat {
		if _, err := memmodel.ByID(p.Model); err != nil {
			return fmt.Errorf("spec: protocol %s: %w", p.Name, err)
		}
	}
	check := func(m *Machine) error {
		for _, t := range m.Rows {
			if !t.On.IsCore() && t.On.Msg != EvLastAck {
				if _, ok := p.Msgs[t.On.Msg]; !ok {
					return fmt.Errorf("spec: protocol %s machine %s references undeclared message %s", p.Name, m.Name, t.On.Msg)
				}
			}
			for _, a := range t.Actions {
				if (a.Op == ActSend || a.Op == ActInvSharers) && a.Msg != "" {
					if _, ok := p.Msgs[a.Msg]; !ok {
						return fmt.Errorf("spec: protocol %s machine %s sends undeclared message %s", p.Name, m.Name, a.Msg)
					}
				}
			}
		}
		return nil
	}
	if p.Cache != nil {
		if err := check(p.Cache); err != nil {
			return err
		}
	}
	if err := check(p.Dir); err != nil {
		return err
	}
	if p.AckType != "" {
		if _, ok := p.Msgs[p.AckType]; !ok {
			return fmt.Errorf("spec: protocol %s ack type %s undeclared", p.Name, p.AckType)
		}
	}
	if n := len(p.Msgs) + 1; n > maxVocab { // + EvLastAck
		return fmt.Errorf("spec: protocol %s declares %d message types, more than a vocabulary numbers", p.Name, n-1)
	}
	return nil
}

// MsgTypes returns the protocol's message types in sorted order.
func (p *Protocol) MsgTypes() []MsgType {
	out := make([]MsgType, 0, len(p.Msgs))
	for t := range p.Msgs {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// VNetOf returns the virtual network of a message type (VResp for the
// synthetic last-ack event, which never travels).
func (p *Protocol) VNetOf(t MsgType) VNet {
	if info, ok := p.Msgs[t]; ok {
		return info.VNet
	}
	return VResp
}

// Freeze numbers the protocol once: its message types in its own
// vocabulary (every declared type plus EvLastAck), and each controller's
// states, with the dense transition rows the runtime dispatches through.
// NewCacheInst and NewDirInst freeze their protocol, so a protocol is
// frozen before anything runs on it; freeze it before sharing it between
// goroutines. Freezing again is a no-op. Rows, states and messages must
// not change once frozen.
func (p *Protocol) Freeze() {
	if p.vocab == nil {
		v, err := NewVocab(append(p.MsgTypes(), EvLastAck))
		if err != nil {
			panic(fmt.Sprintf("spec: protocol %s: %v (Validate refuses it)", p.Name, err))
		}
		p.freeze(v)
	}
}

// FreezeWith freezes the protocol under v, the vocabulary of a fusion
// it runs in, which must number every message type the protocol declares
// and EvLastAck. It fails on a protocol already frozen under another
// vocabulary: fusion freezes a clone.
func (p *Protocol) FreezeWith(v *Vocab) error {
	if p.vocab != nil {
		if p.vocab != v {
			return fmt.Errorf("spec: protocol %s is already frozen under another vocabulary", p.Name)
		}
		return nil
	}
	for t := range p.Msgs {
		if v.ID(t) == NoMsg {
			return fmt.Errorf("spec: protocol %s: vocabulary lacks message %s", p.Name, t)
		}
	}
	if v.ID(EvLastAck) == NoMsg {
		return fmt.Errorf("spec: protocol %s: vocabulary lacks %s", p.Name, EvLastAck)
	}
	p.freeze(v)
	return nil
}

func (p *Protocol) freeze(v *Vocab) {
	kinds := make(map[MsgType]msgKind, len(p.Msgs)+1)
	for t, info := range p.Msgs {
		kinds[t] = msgKind{v.ID(t), info.VNet}
	}
	kinds[EvLastAck] = msgKind{v.ID(EvLastAck), VResp}
	if p.Cache != nil {
		p.Cache.compile(v.Len(), kinds)
	}
	p.Dir.compile(v.Len(), kinds)
	p.ackID = NoMsg
	if p.AckType != "" {
		p.ackID = v.ID(p.AckType)
	}
	p.lastAckID = v.ID(EvLastAck)
	p.vocab = v
}

// Vocab returns the vocabulary the protocol's messages are numbered in,
// freezing the protocol first if needed.
func (p *Protocol) Vocab() *Vocab {
	p.Freeze()
	return p.vocab
}

// MsgID returns the number of a message type in the protocol's
// vocabulary, or NoMsg (set-up code and tests; see Vocab.ID).
func (p *Protocol) MsgID(t MsgType) MsgID { return p.Vocab().ID(t) }

// Clone deep-copies the protocol's specification; the copy is unfrozen.
func (p *Protocol) Clone() *Protocol {
	cp := &Protocol{
		Name:    p.Name,
		Model:   p.Model,
		Class:   p.Class,
		Cache:   p.Cache.Clone(),
		Dir:     p.Dir.Clone(),
		Msgs:    make(map[MsgType]MsgInfo, len(p.Msgs)),
		AckType: p.AckType,
	}
	for t, i := range p.Msgs {
		cp.Msgs[t] = i
	}
	return cp
}

// Memory is the shared backing store behind one or more directories. All
// locations initially hold memmodel.InitValue. Populated locations are a
// sorted slice rather than a map: the handful of addresses a model-checked
// configuration touches clone as one memcpy, and snapshots need no sort.
type Memory struct {
	cells []memCell // sorted by addr; never holds InitValue (canonical)
}

// memCell is one populated memory location.
type memCell struct {
	a Addr
	v int
}

// NewMemory returns an empty memory.
func NewMemory() *Memory { return &Memory{} }

// find returns the index of a, or the insertion point with found=false.
func (m *Memory) find(a Addr) (int, bool) {
	for i, c := range m.cells {
		if c.a == a {
			return i, true
		}
		if c.a > a {
			return i, false
		}
	}
	return len(m.cells), false
}

// Read returns the value at addr.
func (m *Memory) Read(a Addr) int {
	if i, ok := m.find(a); ok {
		return m.cells[i].v
	}
	return memmodel.InitValue
}

// Write stores v at addr.
func (m *Memory) Write(a Addr, v int) {
	i, ok := m.find(a)
	if v == memmodel.InitValue {
		if ok { // drop the cell to keep the encoding canonical
			m.cells = append(m.cells[:i], m.cells[i+1:]...)
		}
		return
	}
	if ok {
		m.cells[i].v = v
		return
	}
	m.cells = append(m.cells, memCell{})
	copy(m.cells[i+1:], m.cells[i:])
	m.cells[i] = memCell{a, v}
}

// Clone deep-copies the memory.
func (m *Memory) Clone() *Memory {
	cp := &Memory{}
	if len(m.cells) > 0 {
		cp.cells = append(make([]memCell, 0, len(m.cells)), m.cells...)
	}
	return cp
}

// Snapshot appends a canonical encoding of the memory to b.
func (m *Memory) Snapshot(b *SnapshotWriter) {
	b.WriteString("mem{")
	for _, c := range m.cells {
		fmt.Fprintf(b, "%d=%d;", c.a, c.v)
	}
	b.WriteString("}")
}
