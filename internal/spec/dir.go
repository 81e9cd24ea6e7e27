package spec

import (
	"fmt"
)

// DirLine is the per-address state a directory controller keeps. Sharers
// is a bitset value (see NodeSet) so lines clone by assignment.
type DirLine struct {
	State   StateID
	Sharers NodeSet
	Owner   NodeID
}

// DirInst executes a directory controller specification for one cluster.
// The backing Memory may be shared with other directories (the merged
// directory shares one LLC/memory across all clusters).
//
// Lines live in a table indexed by address, in pages of dirPageSize
// lines: pages[a>>dirPageBits][a&dirPageMask] is address a's line, and an
// entry whose State is NoState is absent (never materialized, or compacted
// back to pristine). Lookup, materialization and compaction are O(1)
// whatever the address footprint — the performance simulator's
// directories hold thousands of lines, the model checker's a handful at
// addresses 0 and 1 — and the encoders walk the table in address order,
// skipping absent entries, so no sort is needed. A page is allocated on
// first use and grows only to its highest line in use, so the table costs
// memory in proportion to the address ranges in use, not to the largest
// address: the simulated workloads leave a gap of thousands of addresses
// between their shared and private regions. Addresses lie in
// [0, MaxDecodeAddr): slot refuses any other, so no message can grow the
// table past that bound.
type DirInst struct {
	id    NodeID
	proto *Protocol
	m     *Machine // proto.Dir
	mem   *Memory
	pages [][]DirLine // the line table; State NoState marks an absent line
	n     int         // present lines
	trace func(string)
}

// The line table's page size.
const (
	dirPageBits = 8
	dirPageSize = 1 << dirPageBits
	dirPageMask = dirPageSize - 1
)

// NewDirInst builds a directory for the protocol over the given memory.
// It freezes the protocol (Protocol.Freeze).
func NewDirInst(id NodeID, proto *Protocol, mem *Memory) *DirInst {
	proto.Freeze()
	return &DirInst{id: id, proto: proto, m: proto.Dir, mem: mem}
}

// SetTrace installs a trace sink.
func (d *DirInst) SetTrace(fn func(string)) { d.trace = fn }

// OwnedIDs implements Component.
func (d *DirInst) OwnedIDs() []NodeID { return []NodeID{d.id} }

// ID returns the directory's node id.
func (d *DirInst) ID() NodeID { return d.id }

// Protocol returns the protocol this directory runs.
func (d *DirInst) Protocol() *Protocol { return d.proto }

// Vocab implements Namer.
func (d *DirInst) Vocab() *Vocab { return d.proto.vocab }

// Memory returns the backing memory.
func (d *DirInst) Memory() *Memory { return d.mem }

// initLine is the pristine line value for this directory's protocol.
func (d *DirInst) initLine() DirLine {
	return DirLine{State: d.m.init, Owner: NoNode}
}

// slot returns address a's table entry, growing the table to cover it.
// The entry may be absent. The pointer is valid until a's page next
// grows. An address outside [0, MaxDecodeAddr) panics before the table
// grows.
func (d *DirInst) slot(a Addr) *DirLine {
	if a < 0 || a >= MaxDecodeAddr {
		panic(fmt.Sprintf("spec: directory line at address %d outside [0, %d)", a, MaxDecodeAddr))
	}
	p, o := int(a)>>dirPageBits, int(a)&dirPageMask
	if p >= len(d.pages) {
		d.pages = append(d.pages, make([][]DirLine, p+1-len(d.pages))...)
	}
	pg := d.pages[p]
	if n := o + 1; n > len(pg) {
		if n <= cap(pg) {
			old := len(pg)
			pg = pg[:n]
			clear(pg[old:])
		} else {
			grown := make([]DirLine, n, min(max(n, 2*cap(pg)), dirPageSize))
			copy(grown, pg)
			pg = grown
		}
		d.pages[p] = pg
	}
	return &pg[o]
}

// lineAt returns the materialized line for addr, or nil.
func (d *DirInst) lineAt(a Addr) *DirLine {
	p, o := int(a)>>dirPageBits, int(a)&dirPageMask
	if a >= 0 && p < len(d.pages) && o < len(d.pages[p]) && d.pages[p][o].State != NoState {
		return &d.pages[p][o]
	}
	return nil
}

// lineRead returns the line value for addr without materializing (pure).
func (d *DirInst) lineRead(a Addr) DirLine {
	if l := d.lineAt(a); l != nil {
		return *l
	}
	return d.initLine()
}

// Line returns the directory line for addr (materialized on demand). The
// pointer is valid until the line's page next grows.
func (d *DirInst) Line(a Addr) *DirLine {
	l := d.slot(a)
	if l.State == NoState {
		*l = d.initLine()
		d.n++
	}
	return l
}

// LineState returns the directory state for addr (pure).
func (d *DirInst) LineState(a Addr) StateID {
	if l := d.lineAt(a); l != nil {
		return l.State
	}
	return d.m.init
}

// Stable reports whether every directory line is in a stable state.
func (d *DirInst) Stable() bool {
	for _, pg := range d.pages {
		for i := range pg {
			if s := pg[i].State; s != NoState && !d.m.StableID(s) {
				return false
			}
		}
	}
	return true
}

// compactLine drops the materialized line l if it is back to the pristine
// initial state, so snapshots stay canonical. apply only mutates the line
// it was handed, so checking that one line keeps the whole table compact.
func (d *DirInst) compactLine(l *DirLine) {
	if *l == d.initLine() {
		*l = DirLine{}
		d.n--
	}
}

// Lookup returns the row this directory would take for the message in
// its current state, or nil if it would stall. No state is modified.
func (d *DirInst) Lookup(m *Msg) *Step {
	line := d.lineRead(m.Addr)
	return d.lookup(&line, m)
}

// lookup matches the message against the directory table in line's state.
func (d *DirInst) lookup(line *DirLine, m *Msg) *Step {
	ctx := MsgCtx{
		IsOwner:      m.Src == line.Owner,
		IsLastSharer: line.Sharers.Len() == 1 && line.Sharers.Has(m.Src),
	}
	return d.m.MsgStep(line.State, m, ctx)
}

// Deliver implements Component. The line is read once: a stalled message
// leaves it untouched, and a delivered one materializes it in place.
func (d *DirInst) Deliver(env Env, m Msg) bool {
	l := d.slot(m.Addr)
	line := *l
	if line.State == NoState {
		line = d.initLine()
	}
	t := d.lookup(&line, &m)
	if t == nil {
		return false
	}
	if l.State == NoState {
		*l = line
		d.n++
	}
	d.apply(env, m.Addr, l, t, &m)
	return true
}

// apply executes a directory transition on the materialized line for a.
func (d *DirInst) apply(env Env, a Addr, line *DirLine, t *Step, m *Msg) {
	if d.trace != nil {
		d.trace(fmt.Sprintf("dir%d a%d %s --%s--> %s", d.id, a, t.Row.From, t.Row.On, t.Row.Next))
	}
	for i := range t.Acts {
		act := &t.Acts[i]
		switch act.Op {
		case ActSend:
			d.send(env, a, line, act, m)
		case ActInvSharers:
			d.invSharers(env, a, line, act, m)
		case ActAddSharer:
			line.Sharers.Add(m.Src)
		case ActOwnerToSharers:
			if line.Owner != NoNode {
				line.Sharers.Add(line.Owner)
			}
		case ActRemoveSharer:
			line.Sharers.Remove(m.Src)
		case ActClearSharers:
			line.Sharers.Clear()
		case ActSetOwner:
			line.Owner = m.Src
		case ActClearOwner:
			line.Owner = NoNode
		case ActWriteMem:
			if m != nil && m.HasData {
				d.mem.Write(a, m.Data)
			}
		default:
			panic(fmt.Sprintf("spec: directory %s executing non-directory action %s", d.proto.Name, act.Action))
		}
	}
	line.State = t.Next
	d.compactLine(line)
}

// ackCount returns the number of sharers excluding the requestor.
func ackCount(line *DirLine, req NodeID) int {
	n := line.Sharers.Len()
	if line.Sharers.Has(req) {
		n--
	}
	return n
}

func (d *DirInst) send(env Env, a Addr, line *DirLine, act *Act, m *Msg) {
	out := Msg{Type: act.Type, Addr: a, Src: d.id, VNet: act.VNet}
	switch act.Dst {
	case ToMsgSrc:
		out.Dst, out.Req = m.Src, m.Req
	case ToMsgReq:
		out.Dst, out.Req = m.Req, m.Req
	case ToOwner:
		if line.Owner == NoNode {
			panic(fmt.Sprintf("spec: directory %s forwards to absent owner in state %s", d.proto.Name, d.m.StateName(line.State)))
		}
		out.Dst, out.Req = line.Owner, m.Req
	default:
		panic(fmt.Sprintf("spec: directory send to %s", act.Dst))
	}
	if act.ReqFromMsgSrc {
		out.Req = m.Src
	}
	switch act.Payload {
	case PayloadMem:
		out.Data, out.HasData = d.mem.Read(a), true
	case PayloadMsg:
		if m != nil {
			out.Data, out.HasData = m.Data, true
		}
	}
	if act.AckFromSharers {
		out.Ack = ackCount(line, m.Req)
	}
	env.Send(out)
}

// invSharers sends the invalidation message to every sharer except the
// requestor; acks flow to the requestor (carried in Req). NodeSet iterates
// in ascending id order, so send order is deterministic.
func (d *DirInst) invSharers(env Env, a Addr, line *DirLine, act *Act, m *Msg) {
	req := m.Req
	line.Sharers.Each(func(s NodeID) {
		if s != req {
			env.Send(Msg{Type: act.Type, Addr: a, Src: d.id, Dst: s, Req: req, VNet: act.VNet})
		}
	})
}

// Clone implements Component.
func (d *DirInst) Clone() Component { return d.CloneDir(d.mem.Clone()) }

// CloneWithMemory clones the directory onto an externally cloned shared
// memory (hosts that snapshot the memory separately use this so the copy
// stays connected).
func (d *DirInst) CloneWithMemory(mem *Memory) Component { return d.CloneDir(mem) }

// CloneDir deep-copies the directory onto the given memory (callers that
// share memory across directories clone the memory once and pass it to
// each).
func (d *DirInst) CloneDir(mem *Memory) *DirInst {
	cp := &DirInst{id: d.id, proto: d.proto, m: d.m, mem: mem, n: d.n}
	if d.n > 0 {
		cp.pages = make([][]DirLine, len(d.pages))
		for p, pg := range d.pages {
			if len(pg) > 0 {
				cp.pages[p] = append(make([]DirLine, 0, len(pg)), pg...)
			}
		}
	}
	return cp
}

// Snapshot implements Component (memory is snapshotted separately by the
// host, since it may be shared).
func (d *DirInst) Snapshot(b *SnapshotWriter) {
	fmt.Fprintf(b, "dir%d{", d.id)
	for p, pg := range d.pages {
		for o := range pg {
			l := &pg[o]
			if l.State == NoState {
				continue
			}
			sh := make([]int, 0, l.Sharers.Len())
			l.Sharers.Each(func(s NodeID) { sh = append(sh, int(s)) })
			fmt.Fprintf(b, "a%d:%s,o%d,s%v;", p<<dirPageBits|o, d.m.StateName(l.State), l.Owner, sh)
		}
	}
	b.WriteString("}")
}
