package mcheck

import "heterogen/internal/spec"

// EncodeBinary appends the system's state image to buf and returns the
// extended slice: every component's exact image, then the shared memory,
// channels and cores. It distinguishes exactly the states Snapshot
// distinguishes (two systems of the same configuration produce equal
// encodings iff they produce equal Snapshots). A search keys its states
// by their numbered vectors (number.go), which stand in bijection with
// these images; the image is the reference the vectors are checked
// against.
func (s *System) EncodeBinary(buf []byte) []byte {
	for _, c := range s.Components {
		buf = c.AppendBinary(buf)
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
