package mcheck

import (
	"fmt"

	"heterogen/internal/spec"
)

// Spill codec for whole System states. The search frontier keeps its
// entries as these compact byte strings instead of cloned Systems and
// rehydrates each taken entry by decoding it into the worker's clone of the
// initial state (same components, cores and topology — only the mutable
// state differs).
//
// appendSpill routes every component through spec.StateCodec, whose
// contract is bijectivity; every spec.Component implements it. For the
// protocol components and core.MergedDir the image is the component's
// visited-set encoding itself; core.CompiledDir writes only its state
// register, where its visited-set encoding is the interned directory image
// the register indexes.

// appendSpill appends the faithful binary encoding of the full system
// state: components, shared memory, channels, cores.
func appendSpill(s *System, buf []byte) []byte {
	for _, c := range s.Components {
		buf = c.AppendState(buf)
	}
	return appendSpillAfterComponents(s, buf)
}

// appendSpillSegs is appendSpill recording the end offset of every
// component's segment into segs, so restoreSegs can later re-decode just
// the components a move dirtied without walking the others' bytes.
func appendSpillSegs(s *System, buf []byte, segs []int) ([]byte, []int) {
	segs = segs[:0]
	for _, c := range s.Components {
		buf = c.AppendState(buf)
		segs = append(segs, len(buf))
	}
	return appendSpillAfterComponents(s, buf), segs
}

// appendSpillAfterComponents encodes everything that follows the component
// segments: shared memory, channels, cores.
func appendSpillAfterComponents(s *System, buf []byte) []byte {
	buf = s.Mem.AppendState(buf)
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

// spillDec returns the system's reusable decode cursor repointed at enc,
// lazily wiring up its message-type intern table on first use.
func (s *System) spillDec(enc []byte) *spec.Dec {
	if s.decIntern == nil {
		s.decIntern = new(spec.Intern)
		s.dec.InternStrings(s.decIntern)
	}
	s.dec.Reset(enc)
	return &s.dec
}

// decodeSpill rebuilds a spilled state in place over s, which must be a
// clone of the system the state was encoded from (programs, topology and
// component structure are taken from the receiver; only mutable state is
// read from enc).
func decodeSpill(s *System, enc []byte) error {
	d := s.spillDec(enc)
	for _, c := range s.Components {
		if err := c.DecodeState(d); err != nil {
			return err
		}
	}
	if err := s.Mem.DecodeState(d); err != nil {
		return err
	}
	decodeSpillTail(s, d)
	if err := d.Err(); err != nil {
		return err
	}
	if d.Len() != 0 {
		return fmt.Errorf("mcheck: spill decode left %d trailing bytes", d.Len())
	}
	// The receiver's components were overwritten wholesale; any memoized
	// enabled-move bits inherited from the template are meaningless now.
	s.invalidateMoveCache()
	return nil
}

// restoreSegs is the in-place successor strategy's partial decodeSpill:
// re-decode only the components whose bits are set in mask (all of them
// when mask is all-ones or a component index exceeds 63), then the shared
// memory, channels and cores, which every move may touch. preImg/segs must
// come from appendSpillSegs on this same system.
func (s *System) restoreSegs(preImg []byte, segs []int, mask uint64) error {
	restoreAll := mask == ^uint64(0)
	start := 0
	for i, c := range s.Components {
		end := segs[i]
		if restoreAll || (i < 64 && mask&(uint64(1)<<uint(i)) != 0) {
			d := s.spillDec(preImg[start:end])
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
	d := s.spillDec(preImg[start:])
	if err := s.Mem.DecodeState(d); err != nil {
		return err
	}
	decodeSpillTail(s, d)
	if err := d.Err(); err != nil {
		return err
	}
	if d.Len() != 0 {
		return fmt.Errorf("mcheck: spill restore left %d trailing bytes", d.Len())
	}
	s.invalidateMoveCache()
	return nil
}

// decodeSpillTail decodes the channel and core segments (everything after
// the shared memory). Errors are left on the cursor for the caller.
func decodeSpillTail(s *System, d *spec.Dec) {
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
