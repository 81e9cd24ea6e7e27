package mcheck

import (
	"fmt"

	"heterogen/internal/spec"
)

// Decoding of whole-System state images (EncodeBinary). The search
// frontier keeps its entries as these compact byte strings instead of
// cloned Systems and rehydrates each taken entry by decoding it into the
// worker's clone of the initial state (same components, cores and
// topology — only the mutable state differs). Every spec.Component's
// AppendBinary is bijective (spec.StateCodec), so the decode is exact.

// imageDec returns the system's reusable decode cursor repointed at enc,
// lazily wiring up its message-type intern table on first use.
func (s *System) imageDec(enc []byte) *spec.Dec {
	if s.decIntern == nil {
		s.decIntern = new(spec.Intern)
		s.dec.InternStrings(s.decIntern)
	}
	s.dec.Reset(enc)
	return &s.dec
}

// decodeImage rebuilds an encoded state in place over s, which must be a
// clone of the system the state was encoded from (programs, topology and
// component structure are taken from the receiver; only mutable state is
// read from enc).
func decodeImage(s *System, enc []byte) error {
	d := s.imageDec(enc)
	for _, c := range s.Components {
		if err := c.DecodeState(d); err != nil {
			return err
		}
	}
	if err := s.Mem.DecodeState(d); err != nil {
		return err
	}
	decodeTail(s, d)
	if err := d.Err(); err != nil {
		return err
	}
	if d.Len() != 0 {
		return fmt.Errorf("mcheck: image decode left %d trailing bytes", d.Len())
	}
	return nil
}

// restoreSegs is the in-place successor strategy's partial decodeImage:
// re-decode only the components whose bits are set in mask (all of them
// when mask is all-ones or a component index exceeds 63), then the shared
// memory, channels and cores, which every move may touch. preImg/segs must
// come from encode on this same system.
func (s *System) restoreSegs(preImg []byte, segs []int, mask uint64) error {
	restoreAll := mask == ^uint64(0)
	start := 0
	for i, c := range s.Components {
		end := segs[i]
		if restoreAll || (i < 64 && mask&(uint64(1)<<uint(i)) != 0) {
			d := s.imageDec(preImg[start:end])
			if err := c.DecodeState(d); err != nil {
				return err
			}
			if err := d.Err(); err != nil {
				return err
			}
			if d.Len() != 0 {
				return fmt.Errorf("mcheck: component %d restore left %d trailing bytes", i, d.Len())
			}
		}
		start = end
	}
	d := s.imageDec(preImg[start:])
	if err := s.Mem.DecodeState(d); err != nil {
		return err
	}
	decodeTail(s, d)
	if err := d.Err(); err != nil {
		return err
	}
	if d.Len() != 0 {
		return fmt.Errorf("mcheck: restore left %d trailing bytes", d.Len())
	}
	return nil
}

// decodeTail decodes the channel and core segments (everything after
// the shared memory). Errors are left on the cursor for the caller.
func decodeTail(s *System, d *spec.Dec) {
	n := d.Uvarint()
	old := s.chans
	s.chans = s.chans[:0]
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		var cs chanState
		if int(i) < len(old) {
			// Reuse the previous decode's message buffer. Arena-backed
			// slices from Clone are capacity-capped to their own region,
			// so appending within cap never clobbers a sibling channel.
			cs.msgs = old[i].msgs[:0]
		}
		cs.k.src = spec.NodeID(d.Int())
		cs.k.dst = spec.NodeID(d.Int())
		cs.k.vnet = spec.VNet(d.Int())
		cnt := int(d.Uvarint())
		if d.Err() != nil {
			break
		}
		if cap(cs.msgs) < cnt {
			cs.msgs = make([]spec.Msg, 0, cnt)
		}
		for j := 0; j < cnt && d.Err() == nil; j++ {
			cs.msgs = cs.msgs[:j+1]
			spec.DecodeMsgInto(&cs.msgs[j], d)
		}
		s.chans = append(s.chans, cs)
	}
	for _, c := range s.Cores {
		c.PC = d.Int()
		c.Issued = d.Bool()
		cnt := int(d.Uvarint())
		if d.Err() != nil {
			break
		}
		c.Loads = c.Loads[:0]
		for j := 0; j < cnt && d.Err() == nil; j++ {
			c.Loads = append(c.Loads, d.Int())
		}
	}
}
