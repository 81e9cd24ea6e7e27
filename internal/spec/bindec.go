package spec

import (
	"encoding/binary"
	"fmt"
)

// This file implements the inverse of binenc.go: a cursor-based reader for
// the compact binary encoding, and each component's DecodeState, which the
// model checker uses to materialize a numbered state into a System.
//
// AppendBinary is one image serving both roles: as a visited-set key it
// need only be injective, but since it is also decoded it must be
// *bijective* — DecodeState must rebuild the exact component state from
// it, so no component may leave a field out of its image.

// Dec is a cursor over a binary encoding produced with the Append* helpers.
// Read methods record the first error and return zero values afterwards, so
// callers check Err() once at the end of a decode.
type Dec struct {
	buf []byte
	off int
	err error
}

// NewDec returns a cursor reading from buf.
func NewDec(buf []byte) *Dec { return &Dec{buf: buf} }

// Reset repoints the cursor at buf and clears any recorded error, so one
// long-lived Dec can decode millions of images without a per-decode
// allocation.
func (d *Dec) Reset(buf []byte) { d.buf, d.off, d.err = buf, 0, nil }

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

// Count reads an element count written with AppendUvarint, failing unless
// it is at most the number of unread bytes: every element takes at least
// one byte, so a larger count is corrupt, and the guard keeps it from
// sizing an allocation.
func (d *Dec) Count() int {
	n := d.Uvarint()
	if d.err == nil && n > uint64(d.Len()) {
		d.fail("count %d exceeds the %d bytes left at offset %d", n, d.Len(), d.off)
		return 0
	}
	return int(n)
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

// decodeState reads a machine state's index (StateID − 1), recording an
// error on the cursor if it is out of range.
func decodeState(d *Dec, m *Machine, what string) StateID {
	i := d.Int()
	if d.err != nil {
		return NoState
	}
	if i < 0 || i >= m.NumStates() {
		d.fail("%s state index %d out of range for machine %s", what, i, m.Name)
		return NoState
	}
	return StateID(i + 1)
}

// DecodeMsgInto reads a message written by Msg.AppendBinary into m, in
// place: hot loops would otherwise copy the struct through a return value.
func DecodeMsgInto(m *Msg, d *Dec) {
	m.Type = MsgID(d.Uvarint())
	m.decodeFields(d)
}

// decodeFields reads everything after the type.
func (m *Msg) decodeFields(d *Dec) {
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

// DecodeState implements StateCodec: the inverse of AppendBinary.
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

// MaxDecodeAddr bounds the line addresses a directory holds: a delivery
// (DirInst.slot) and an image (DecodeState) at an address outside
// [0, MaxDecodeAddr) fail before the address-indexed line table grows to
// it. The largest address a workload generates is 4096 + cores×
// PrivateBlocks − 1: 61,439 for the Figure 10 points and 200,703 for the
// bigset-mix family on the 1024-core TableIIIMesh(32); model-checker and
// artifact states use addresses below ten. The simulator refuses a
// workload that names a larger address (sim.New).
const MaxDecodeAddr = 1 << 18

// DecodeState implements StateCodec: the inverse of AppendBinary (the
// shared memory is decoded separately by the host). Line addresses must
// ascend strictly and lie in [0, MaxDecodeAddr); an image breaking that
// is not AppendBinary's and fails to decode.
func (dir *DirInst) DecodeState(d *Dec) error {
	if id := NodeID(d.Int()); d.err == nil && id != dir.id {
		d.fail("directory id %d decoded into directory %d", id, dir.id)
	}
	m := dir.proto.Dir
	n := d.Uvarint()
	for _, pg := range dir.pages {
		clear(pg)
	}
	dir.n = 0
	prev := Addr(-1)
	for i := uint64(0); i < n && d.err == nil; i++ {
		a := Addr(d.Int())
		switch {
		case d.err != nil:
			return d.err
		case a < 0 || a >= MaxDecodeAddr:
			d.fail("directory line address %d outside [0, %d)", a, MaxDecodeAddr)
			return d.err
		case a <= prev:
			d.fail("directory line address %d after %d: addresses must ascend", a, prev)
			return d.err
		}
		prev = a
		l := dir.slot(a)
		l.State = decodeState(d, m, "directory line")
		l.Owner = NodeID(d.Int())
		l.Sharers = DecodeNodeSet(d)
		if l.State != NoState {
			dir.n++
		}
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
