package mcheck

import "heterogen/internal/spec"

// EncodeBinary appends a compact binary encoding of the full system state
// to buf and returns the extended slice. It distinguishes exactly the
// states Snapshot distinguishes (two systems of the same configuration
// produce equal encodings iff they produce equal Snapshots) while skipping
// the fmt machinery — the visited-set key of Explore. Each component's part
// is its exact image, the one its spill codec decodes (decode.go), except
// that core.CompiledDir spills the register indexing its image.
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
