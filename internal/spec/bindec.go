package spec

import (
	"encoding/binary"
	"fmt"
)

// This file implements the inverse of binenc.go: a cursor-based reader for
// the compact binary encoding, and each component's DecodeState, which the
// model checker uses to rehydrate frontier states and to restore a state
// between in-place successor moves.
//
// AppendBinary is one image serving both roles: as a visited-set key it
// need only be injective, but since it is also decoded it must be
// *bijective* — DecodeState must rebuild the exact component state from
// it, so no component may leave a field out of its image.

// Dec is a cursor over a binary encoding produced with the Append* helpers.
// Read methods record the first error and return zero values afterwards, so
// callers check Err() once at the end of a decode.
type Dec struct {
	buf    []byte
	off    int
	err    error
	intern *Intern
}

// Intern is a tiny open-addressed string-intern table sized for the decode
// vocabulary of this repo: the message types of the protocols in play, a few
// dozen distinct values. A fixed probe table beats map[string]string here
// because the runtime map's hash+probe dominated hot decode loops; two bytes
// and the length are enough to spread such a small vocabulary. An Intern and
// the Decs using it must stay confined to one goroutine.
type Intern struct {
	slots [128]string
}

const internProbes = 8

func (t *Intern) lookup(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	h := (uint32(len(b))*131 + uint32(b[0])*31 + uint32(b[len(b)-1])) & uint32(len(t.slots)-1)
	for i := uint32(0); i < internProbes; i++ {
		j := (h + i) & uint32(len(t.slots)-1)
		s := t.slots[j]
		if s == "" {
			s = string(b)
			t.slots[j] = s
			return s
		}
		if s == string(b) { // no-alloc comparison
			return s
		}
	}
	// Probe window saturated (vocabulary larger than designed for): give up
	// interning this value rather than evicting.
	return string(b)
}

// NewDec returns a cursor reading from buf.
func NewDec(buf []byte) *Dec { return &Dec{buf: buf} }

// Reset repoints the cursor at buf and clears any recorded error, so one
// long-lived Dec can decode millions of images without a per-decode
// allocation. The intern table, if set, survives resets.
func (d *Dec) Reset(buf []byte) { d.buf, d.off, d.err = buf, 0, nil }

// InternStrings attaches a string-intern table: String reads whose bytes
// match an earlier decode return the retained copy instead of allocating a
// fresh one. The Dec and its table must stay confined to one goroutine.
func (d *Dec) InternStrings(t *Intern) { d.intern = t }

// Err returns the first decode error, or nil.
func (d *Dec) Err() error { return d.err }

// Len returns the number of unread bytes.
func (d *Dec) Len() int { return len(d.buf) - d.off }

func (d *Dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("spec: decode: "+format, args...)
	}
}

// Uvarint reads an unsigned varint (inverse of AppendUvarint). Values under
// 0x80 — the overwhelming majority in this repo's encodings — take a
// single-byte fast path that skips binary.Uvarint's loop.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off < len(d.buf) {
		if b := d.buf[d.off]; b < 0x80 {
			d.off++
			return uint64(b)
		}
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// Int reads a zigzag varint (inverse of AppendInt), with the same
// single-byte fast path as Uvarint.
func (d *Dec) Int() int {
	if d.err != nil {
		return 0
	}
	if d.off < len(d.buf) {
		if b := d.buf[d.off]; b < 0x80 {
			d.off++
			return int(int64(b>>1) ^ -int64(b&1))
		}
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return int(v)
}

// Bool reads a 0/1 byte (inverse of AppendBool).
func (d *Dec) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.buf) {
		d.fail("bool past end at offset %d", d.off)
		return false
	}
	b := d.buf[d.off]
	d.off++
	if b > 1 {
		d.fail("bad bool byte %d at offset %d", b, d.off-1)
		return false
	}
	return b == 1
}

// String reads a length-prefixed string (inverse of AppendString). The
// result is a copy, safe to retain after the underlying buffer is reused.
func (d *Dec) String() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(d.Len()) < n {
		d.fail("string of %d bytes past end at offset %d", n, d.off)
		return ""
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	if d.intern != nil {
		return d.intern.lookup(b)
	}
	return string(b)
}

// StateCodec is implemented by components whose state has an exact byte
// image. AppendBinary must be bijective over reachable states:
// DecodeState applied to its output on a structurally-identical receiver
// (same ids, same protocol, same topology — e.g. a Clone of the initial
// system's component) must reproduce the source state field for field.
// core.CompiledDir's image is its state register.
type StateCodec interface {
	BinaryAppender
	DecodeState(d *Dec) error
}

// decodeState looks up a machine state from its dense index, recording an
// error on the cursor if the index is out of range.
func decodeState(d *Dec, m *Machine, what string) State {
	i := d.Int()
	if d.err != nil {
		return ""
	}
	s := m.StateAt(i)
	if s == "" {
		d.fail("%s state index %d out of range for machine %s", what, i, m.Name)
	}
	return s
}

// DecodeMsg reads a message written by Msg.AppendBinary.
func DecodeMsg(d *Dec) Msg {
	var m Msg
	DecodeMsgInto(&m, d)
	return m
}

// DecodeMsgInto decodes in place, for hot loops that would otherwise copy
// the message struct through a return value.
func DecodeMsgInto(m *Msg, d *Dec) {
	m.Type = MsgType(d.String())
	m.Addr = Addr(d.Int())
	m.Src = NodeID(d.Int())
	m.Dst = NodeID(d.Int())
	m.Req = NodeID(d.Int())
	m.Data = d.Int()
	m.HasData = d.Bool()
	m.Ack = d.Int()
	m.VNet = VNet(d.Int())
}

// DecodeNodeSet reads a count-prefixed id list written by the NodeSet
// encoders in binenc.go.
func DecodeNodeSet(d *Dec) NodeSet {
	var s NodeSet
	n := d.Uvarint()
	for i := uint64(0); i < n && d.err == nil; i++ {
		s.Add(NodeID(d.Int()))
	}
	return s
}

// DecodeState implements StateCodec: the inverse of AppendBinaryRelabeled
// with the identity relabeling.
func (c *CacheInst) DecodeState(d *Dec) error {
	if id := NodeID(d.Int()); d.err == nil && id != c.id {
		d.fail("cache id %d decoded into cache %d", id, c.id)
	}
	m := c.proto.Cache
	n := d.Uvarint()
	c.lines = c.lines[:0]
	for i := uint64(0); i < n && d.err == nil; i++ {
		var e cacheEntry
		e.a = Addr(d.Int())
		e.l.State = decodeState(d, m, "cache line")
		e.l.Data = d.Int()
		e.l.HasData = d.Bool()
		e.l.AckBalance = d.Int()
		e.l.AckArmed = d.Bool()
		c.lines = append(c.lines, e)
	}
	if d.Bool() {
		c.req = CoreReq{Op: CoreOp(d.Int()), Addr: Addr(d.Int()), Value: d.Int()}
		c.pending = &c.req
	} else {
		c.pending = nil
	}
	c.syncWait = d.Bool()
	c.lastLoad = d.Int()
	return d.Err()
}

// DecodeState implements StateCodec: the inverse of AppendBinary (the
// shared memory is decoded separately by the host).
func (dir *DirInst) DecodeState(d *Dec) error {
	if id := NodeID(d.Int()); d.err == nil && id != dir.id {
		d.fail("directory id %d decoded into directory %d", id, dir.id)
	}
	m := dir.proto.Dir
	n := d.Uvarint()
	dir.lines = dir.lines[:0]
	for i := uint64(0); i < n && d.err == nil; i++ {
		var e dirEntry
		e.a = Addr(d.Int())
		e.l.State = decodeState(d, m, "directory line")
		e.l.Owner = NodeID(d.Int())
		e.l.Sharers = DecodeNodeSet(d)
		dir.lines = append(dir.lines, e)
	}
	return d.Err()
}

// DecodeState implements StateCodec: the inverse of AppendBinary.
func (m *Memory) DecodeState(d *Dec) error {
	n := d.Uvarint()
	m.cells = m.cells[:0]
	for i := uint64(0); i < n && d.err == nil; i++ {
		a := Addr(d.Int())
		v := d.Int()
		m.cells = append(m.cells, memCell{a: a, v: v})
	}
	return d.Err()
}

var (
	_ StateCodec = (*CacheInst)(nil)
	_ StateCodec = (*DirInst)(nil)
	_ StateCodec = (*Memory)(nil)
)
