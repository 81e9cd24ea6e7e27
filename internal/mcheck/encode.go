package mcheck

import "heterogen/internal/spec"

// EncodeBinary appends the system's state image to buf and returns the
// extended slice: every component's exact image, then the shared memory,
// channels and cores. It distinguishes exactly the states Snapshot
// distinguishes (two systems of the same configuration produce equal
// encodings iff they produce equal Snapshots), and decodeImage (decode.go)
// reads it back into a clone of the system. One byte string thus serves
// as the visited-set key when symmetry is off, as the frontier entry and
// as the in-place restore image.
func (s *System) EncodeBinary(buf []byte) []byte {
	return s.encode(buf, nil)
}

// encode is EncodeBinary, recording the end offset of every component's
// segment into *segs when segs is non-nil, so restoreSegs can later
// re-decode just the components a move dirtied.
func (s *System) encode(buf []byte, segs *[]int) []byte {
	for _, c := range s.Components {
		buf = c.AppendBinary(buf)
		if segs != nil {
			*segs = append(*segs, len(buf))
		}
	}
	buf = s.Mem.AppendBinary(buf)
	buf = spec.AppendUvarint(buf, uint64(len(s.chans)))
	for i := range s.chans {
		k := s.chans[i].k
		buf = spec.AppendInt(buf, int(k.src))
		buf = spec.AppendInt(buf, int(k.dst))
		buf = spec.AppendInt(buf, int(k.vnet))
		buf = spec.AppendUvarint(buf, uint64(len(s.chans[i].msgs)))
		for j := range s.chans[i].msgs {
			buf = s.chans[i].msgs[j].AppendBinary(buf)
		}
	}
	for _, c := range s.Cores {
		buf = spec.AppendInt(buf, c.PC)
		buf = spec.AppendBool(buf, c.Issued)
		buf = spec.AppendUvarint(buf, uint64(len(c.Loads)))
		for _, v := range c.Loads {
			buf = spec.AppendInt(buf, v)
		}
	}
	return buf
}

// freezeComponents pre-builds every lazily-initialized structure shared
// between system clones (protocol table indexes) so parallel workers never
// race on first use.
func freezeComponents(s *System) {
	for _, c := range s.Components {
		if f, ok := c.(spec.Freezer); ok {
			f.Freeze()
		}
	}
}
