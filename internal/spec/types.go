// Package spec defines the protocol specification form HeteroGen operates
// on: cache and directory controllers as table-driven finite state machines
// over a small, analyzable action vocabulary, plus the runtime that executes
// those tables inside a message-passing system.
//
// This plays the role of ProtoGen's PCC input language in the original
// artifact: protocols are *data* — the fusion engine in internal/core
// analyzes and recombines the tables, while internal/mcheck (the Murphi
// stand-in) and internal/sim (the gem5 stand-in) interpret them.
//
// Names and numbers: the specification layer (PCC text, Machine.Rows,
// the fusion analysis) names states (State) and message types (MsgType).
// Protocol.Freeze numbers them once, per protocol — or per fusion, whose
// vocabulary covers all its clusters (Vocab) — and the runtime holds only
// the numbers: StateID in cache and directory lines, MsgID in every Msg,
// and dense [state][message] and [state][CoreOp] rows of Steps whose
// actions carry their message's number and virtual network. Names come
// back only in Snapshot, exports, statistics and error text. There is no
// process-wide table of names.
package spec

import "fmt"

// NodeID identifies a controller endpoint on the interconnect (a cache or a
// directory). IDs are assigned by the system builder; one component may own
// several IDs (the merged directory owns its sub-directories and proxies).
type NodeID int

// NoNode is the absent NodeID (e.g. a directory with no owner).
const NoNode NodeID = -1

// Addr is a cache-block address. Small dense integers keep model-checker
// state hashing cheap; litmus drivers map symbolic names to Addrs.
type Addr int

// State names a controller state, stable or transient (e.g. "M", "IM_AD").
// Names belong to the specification layer; the runtime holds StateIDs.
type State string

// StateID numbers a state of one machine: 1 + the state's index in
// Machine.States(). The zero value NoState is no state at all (a directory
// line table's absent entry), so a cleared line reads as absent.
type StateID uint16

// NoState is the absent StateID.
const NoState StateID = 0

// MsgType names a coherence message type (e.g. "GetM", "Data", "Inv").
// Names belong to the specification layer; the runtime holds MsgIDs.
type MsgType string

// MsgID numbers a message type within one Vocab: a protocol's own, or the
// fusion's it runs in.
type MsgID uint16

// NoMsg is the MsgID of a name a vocabulary does not hold. No row matches
// it.
const NoMsg MsgID = ^MsgID(0)

// CoreOp is an operation the processor pipeline presents to its cache
// controller, per the coherence interface of §II-B.
type CoreOp int

// Core operations. OpEvict models a replacement decision; OpAcquire,
// OpRelease and OpFence are the synchronization operations of the RC/TSO
// coherence interfaces.
const (
	CoreNone CoreOp = iota
	OpLoad
	OpStore
	OpAcquire
	OpRelease
	OpFence
	OpEvict
)

func (op CoreOp) String() string {
	switch op {
	case CoreNone:
		return "none"
	case OpLoad:
		return "Load"
	case OpStore:
		return "Store"
	case OpAcquire:
		return "Acquire"
	case OpRelease:
		return "Release"
	case OpFence:
		return "Fence"
	case OpEvict:
		return "Evict"
	}
	return fmt.Sprintf("CoreOp(%d)", int(op))
}

// IsSync reports whether the op is a whole-cache synchronization operation
// handled by the cache runtime's SyncBehavior rather than a per-line table.
func (op CoreOp) IsSync() bool {
	return op == OpAcquire || op == OpRelease || op == OpFence
}

// Cond refines a message event so tables can discriminate cases the way
// published protocol tables do ("Data (ack=0)", "PutM from Owner", ...).
type Cond int

const (
	// CondAny matches unconditionally.
	CondAny Cond = iota
	// CondAckZero matches messages whose Ack field is zero.
	CondAckZero
	// CondAckPos matches messages whose Ack field is positive.
	CondAckPos
	// CondFromOwner matches messages sent by the line's current owner
	// (directory tables only).
	CondFromOwner
	// CondNotOwner matches messages sent by anyone but the current owner
	// (directory tables only).
	CondNotOwner
	// CondLastSharer matches when the message source is the only sharer
	// (directory tables only; the primer's "PutS-Last").
	CondLastSharer
	// CondNotLastSharer matches when sharers other than the source remain.
	CondNotLastSharer
)

func (c Cond) String() string {
	switch c {
	case CondAny:
		return ""
	case CondAckZero:
		return "ack=0"
	case CondAckPos:
		return "ack>0"
	case CondFromOwner:
		return "from-owner"
	case CondNotOwner:
		return "not-owner"
	case CondLastSharer:
		return "last-sharer"
	case CondNotLastSharer:
		return "not-last-sharer"
	}
	return fmt.Sprintf("Cond(%d)", int(c))
}

// Event is a trigger for a transition: either a core operation or the
// arrival of a message of a given type (optionally refined by Cond).
type Event struct {
	Core CoreOp  // CoreNone for message events
	Msg  MsgType // "" for core events
	Cond Cond
}

// OnCore builds a core-operation event.
func OnCore(op CoreOp) Event { return Event{Core: op} }

// OnMsg builds a message event matching any instance of the type.
func OnMsg(t MsgType) Event { return Event{Msg: t} }

// OnMsgCond builds a message event refined by a condition.
func OnMsgCond(t MsgType, c Cond) Event { return Event{Msg: t, Cond: c} }

// IsCore reports whether the event is a core operation.
func (e Event) IsCore() bool { return e.Core != CoreNone }

func (e Event) String() string {
	if e.IsCore() {
		return e.Core.String()
	}
	if e.Cond == CondAny {
		return string(e.Msg)
	}
	return fmt.Sprintf("%s[%s]", e.Msg, e.Cond)
}

// VNet is a virtual network class. Separating requests, forwards and
// responses onto distinct virtual networks is the standard way directory
// protocols avoid protocol-level deadlock; the model checker and simulator
// give each (src, dst, vnet) triple its own ordered channel.
type VNet int

const (
	// VReq carries cache→directory requests.
	VReq VNet = iota
	// VFwd carries directory→cache forwards and invalidations.
	VFwd
	// VResp carries data and acknowledgment responses.
	VResp
	// NumVNets is the channel-class count.
	NumVNets
)

// Msg is a coherence message in flight. It holds no pointer, string or
// slice — the type is its number in the sender's Vocab — so the
// simulator's message slab and the checker's channel buffers give the
// garbage collector nothing to scan.
type Msg struct {
	Addr    Addr
	Src     NodeID // sender
	Dst     NodeID // destination endpoint
	Req     NodeID // original requestor (carried through forwards and acks)
	Data    int    // block value, when HasData
	Ack     int    // invalidation-ack count piggybacked on data responses
	VNet    VNet   // channel class
	Type    MsgID
	HasData bool
}

// String renders the message with its type as a number; Vocab.Format
// names it.
func (m Msg) String() string { return m.format(fmt.Sprintf("#%d", m.Type)) }

// format renders the message with its type spelled name.
func (m Msg) format(name string) string {
	s := fmt.Sprintf("%s a%d %d->%d", name, m.Addr, m.Src, m.Dst)
	if m.Req != 0 && m.Req != NoNode && m.Req != m.Src {
		s += fmt.Sprintf(" req=%d", m.Req)
	}
	if m.HasData {
		s += fmt.Sprintf(" data=%d", m.Data)
	}
	if m.Ack != 0 {
		s += fmt.Sprintf(" ack=%d", m.Ack)
	}
	return s
}

// MsgInfo declares a protocol message type.
type MsgInfo struct {
	VNet        VNet
	CarriesData bool
}

// CoreReq is one pending pipeline request against a cache controller.
type CoreReq struct {
	Op    CoreOp
	Addr  Addr
	Value int // store value
}

func (r CoreReq) String() string {
	if r.Op == OpStore {
		return fmt.Sprintf("%s a%d=%d", r.Op, r.Addr, r.Value)
	}
	if r.Op.IsSync() {
		return r.Op.String()
	}
	return fmt.Sprintf("%s a%d", r.Op, r.Addr)
}
