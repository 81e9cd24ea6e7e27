package spec

import "encoding/binary"

// This file implements the compact binary state image: the key by which
// the model checker numbers component states, the image a numbered state
// materializes from, and the artifact codec's form. The string
// Snapshot form stays the canonical human-readable encoding (debug output,
// deadlock reports); AppendBinary produces a byte string that
// distinguishes exactly the same states while avoiding the fmt formatting
// machinery on the exploration hot path, and that DecodeState (bindec.go)
// reads back into the exact state. Every encoder is self-delimiting
// (varint lengths/counts before variable-size sections), so concatenating
// encodings over a fixed component list stays injective.
//
// Controller states are written as their index in Machine.States()
// (StateID − 1) and message types as their MsgID, never as names: a
// one-byte varint instead of a string per line or message.

// BinaryAppender is the binary counterpart of Component.Snapshot: it
// appends a compact, self-delimiting image of the component's state to
// buf.
type BinaryAppender interface {
	AppendBinary(buf []byte) []byte
}

// AppendUvarint appends v in unsigned varint form. Values under 0x80 — the
// overwhelming majority in this repo's encodings — take a single-byte fast
// path that skips binary.AppendUvarint's loop.
func AppendUvarint(buf []byte, v uint64) []byte {
	if v < 0x80 {
		return append(buf, byte(v))
	}
	return binary.AppendUvarint(buf, v)
}

// AppendInt appends v in zigzag varint form, with the same single-byte fast
// path as AppendUvarint. The zigzag transform here matches
// binary.AppendVarint's exactly, so the wire format is unchanged.
func AppendInt(buf []byte, v int) []byte {
	if u := uint64(v)<<1 ^ uint64(int64(v)>>63); u < 0x80 {
		return append(buf, byte(u))
	}
	return binary.AppendVarint(buf, int64(v))
}

// AppendBool appends a single 0/1 byte.
func AppendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// AppendString appends a length-prefixed string.
func AppendString(buf []byte, s string) []byte {
	buf = AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// AppendBinary encodes the message: type number, endpoints and payload
// fields. Pointer receiver: encode loops over message slices are hot
// enough that the by-value copy of the struct showed up in profiles. The
// type is its MsgID, which sorts as the name did (Vocab).
func (m *Msg) AppendBinary(buf []byte) []byte {
	buf = AppendUvarint(buf, uint64(m.Type))
	return m.appendFields(buf)
}

// appendFields encodes everything after the type.
func (m *Msg) appendFields(buf []byte) []byte {
	buf = AppendInt(buf, int(m.Addr))
	buf = AppendInt(buf, int(m.Src))
	buf = AppendInt(buf, int(m.Dst))
	buf = AppendInt(buf, int(m.Req))
	buf = AppendInt(buf, m.Data)
	buf = AppendBool(buf, m.HasData)
	buf = AppendInt(buf, m.Ack)
	buf = AppendInt(buf, int(m.VNet))
	return buf
}

// AppendBinary encodes id, the populated lines in address order, the
// pending request and the sync/load bookkeeping — the same facts as
// Snapshot, with line states as machine state indexes.
func (c *CacheInst) AppendBinary(buf []byte) []byte {
	buf = AppendInt(buf, int(c.id))
	buf = AppendUvarint(buf, uint64(len(c.lines)))
	for i := range c.lines {
		l := &c.lines[i].l
		buf = AppendInt(buf, int(c.lines[i].a))
		buf = AppendInt(buf, int(l.State)-1)
		buf = AppendInt(buf, l.Data)
		buf = AppendBool(buf, l.HasData)
		buf = AppendInt(buf, l.AckBalance)
		buf = AppendBool(buf, l.AckArmed)
	}
	if c.pending == nil {
		buf = AppendBool(buf, false)
	} else {
		buf = AppendBool(buf, true)
		buf = AppendInt(buf, int(c.pending.Op))
		buf = AppendInt(buf, int(c.pending.Addr))
		buf = AppendInt(buf, c.pending.Value)
	}
	buf = AppendBool(buf, c.syncWait)
	buf = AppendInt(buf, c.lastLoad)
	return buf
}

// AppendBinary encodes id and the directory lines in address order: state
// index, owner and the sharer bitset — the same facts as Snapshot.
func (d *DirInst) AppendBinary(buf []byte) []byte {
	buf = AppendInt(buf, int(d.id))
	buf = AppendUvarint(buf, uint64(d.n))
	for p, pg := range d.pages {
		for o := range pg {
			l := &pg[o]
			if l.State == NoState {
				continue
			}
			buf = AppendInt(buf, p<<dirPageBits|o)
			buf = AppendInt(buf, int(l.State)-1)
			buf = AppendInt(buf, int(l.Owner))
			buf = AppendUvarint(buf, uint64(l.Sharers.Len()))
			l.Sharers.Each(func(s NodeID) { buf = AppendInt(buf, int(s)) })
		}
	}
	return buf
}

// AppendBinary encodes the populated locations in address order.
func (m *Memory) AppendBinary(buf []byte) []byte {
	buf = AppendUvarint(buf, uint64(len(m.cells)))
	for _, c := range m.cells {
		buf = AppendInt(buf, int(c.a))
		buf = AppendInt(buf, c.v)
	}
	return buf
}
