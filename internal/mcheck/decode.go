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

// imageDec returns the system's reusable decode cursor repointed at enc.
func (s *System) imageDec(enc []byte) *spec.Dec {
	s.dec.Reset(enc)
	return &s.dec
}

// decodeImage rebuilds an encoded state in place over s, which must be a
// clone of the system the state was encoded from (programs, topology and
// component structure are taken from the receiver; only mutable state is
// read from enc). When segs is non-nil it receives the image's segment
// ends, the same ones encodeImage records: every component's, then the
// memory's, the channel block's and the cores'. restore and spliceImage
// cut enc at them, and the exact visited set interns the parent's
// segments by them.
func decodeImage(s *System, enc []byte, segs *[]int) error {
	d := s.imageDec(enc)
	if segs != nil {
		*segs = (*segs)[:0]
	}
	mark := func() {
		if segs != nil {
			*segs = append(*segs, len(enc)-d.Len())
		}
	}
	for _, c := range s.Components {
		if err := c.DecodeState(d); err != nil {
			return err
		}
		mark()
	}
	if err := s.Mem.DecodeState(d); err != nil {
		return err
	}
	mark()
	decodeChans(s, d)
	mark()
	decodeCores(s, d)
	mark()
	if err := d.Err(); err != nil {
		return err
	}
	if d.Len() != 0 {
		return fmt.Errorf("mcheck: image decode left %d trailing bytes", d.Len())
	}
	return nil
}

// decodeSegment re-decodes c from seg, which must hold exactly its image.
func (s *System) decodeSegment(c spec.StateCodec, seg []byte) error {
	d := s.imageDec(seg)
	if err := c.DecodeState(d); err != nil {
		return err
	}
	if d.Len() != 0 {
		return fmt.Errorf("mcheck: segment restore left %d trailing bytes", d.Len())
	}
	return nil
}

// restore returns s to the state decodeImage read from pre (segs are its
// segment ends) after one successful Apply: the component the move touched and
// the shared memory are re-decoded from their segments (every component
// when it touched no component index), and the channels and cores, which
// every move may touch, are copied back from saved.
func (s *System) restore(pre []byte, segs []int, saved *tailCopy) error {
	t := s.touched
	start := 0
	for i, c := range s.Components {
		if t < 0 || t >= len(s.Components) || i == t {
			if err := s.decodeSegment(c, pre[start:segs[i]]); err != nil {
				return err
			}
		}
		start = segs[i]
	}
	if err := s.decodeSegment(s.Mem, pre[start:segs[len(s.Components)]]); err != nil {
		return err
	}
	saved.restore(s)
	return nil
}

// tailCopy is a saved copy of a System's channels and cores, the part of
// a state that restore copies back rather than decodes. Its buffers are
// reused from one expanded state to the next.
type tailCopy struct {
	keys  []chanKey
	ends  []int // end offset of each channel's messages in msgs
	msgs  []spec.Msg
	cores []coreCopy
	loads []int
}

// coreCopy is one core's saved progress; end is the end offset of its
// loads in tailCopy.loads.
type coreCopy struct {
	pc     int
	issued bool
	end    int
}

// save records s's channels and cores.
func (t *tailCopy) save(s *System) {
	t.keys, t.ends, t.msgs = t.keys[:0], t.ends[:0], t.msgs[:0]
	for i := range s.chans {
		t.keys = append(t.keys, s.chans[i].k)
		t.msgs = append(t.msgs, s.chans[i].msgs...)
		t.ends = append(t.ends, len(t.msgs))
	}
	t.cores, t.loads = t.cores[:0], t.loads[:0]
	for _, c := range s.Cores {
		t.loads = append(t.loads, c.Loads...)
		t.cores = append(t.cores, coreCopy{pc: c.PC, issued: c.Issued, end: len(t.loads)})
	}
}

// restore copies the saved channels and cores back into s. Each channel
// refills a retired buffer of s's own, so no queue aliases the copy or
// another queue.
func (t *tailCopy) restore(s *System) {
	s.retireChans()
	start := 0
	for i, k := range t.keys {
		s.chans = append(s.chans, chanState{k: k, msgs: append(s.msgBuf(), t.msgs[start:t.ends[i]]...)})
		start = t.ends[i]
	}
	start = 0
	for i, c := range s.Cores {
		cc := &t.cores[i]
		c.PC, c.Issued = cc.pc, cc.issued
		c.Loads = append(c.Loads[:0], t.loads[start:cc.end]...)
		start = cc.end
	}
}

// decodeChans decodes the channel segment. Errors are left on the cursor
// for the caller.
func decodeChans(s *System, d *spec.Dec) {
	n := d.Uvarint()
	s.retireChans()
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		var cs chanState
		cs.k.src = spec.NodeID(d.Int())
		cs.k.dst = spec.NodeID(d.Int())
		cs.k.vnet = spec.VNet(d.Int())
		cnt := int(d.Uvarint())
		if d.Err() != nil {
			break
		}
		cs.msgs = s.msgBuf()
		if cap(cs.msgs) < cnt {
			cs.msgs = make([]spec.Msg, 0, cnt)
		}
		for j := 0; j < cnt && d.Err() == nil; j++ {
			cs.msgs = cs.msgs[:j+1]
			spec.DecodeMsgInto(&cs.msgs[j], d)
		}
		s.chans = append(s.chans, cs)
	}
}

// decodeCores decodes the cores' segment. Errors are left on the cursor
// for the caller.
func decodeCores(s *System, d *spec.Dec) {
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
