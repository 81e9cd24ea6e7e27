package mcheck

import "heterogen/internal/spec"

// EncodeBinary appends the system's state image to buf and returns the
// extended slice: every component's exact image, then the shared memory,
// channels and cores. It distinguishes exactly the states Snapshot
// distinguishes (two systems of the same configuration produce equal
// encodings iff they produce equal Snapshots), and decodeImage (decode.go)
// reads it back into a clone of the system. One byte string thus serves
// as the visited-set key, as the frontier entry and as the in-place
// restore image.
func (s *System) EncodeBinary(buf []byte) []byte { return s.encodeImage(buf, nil) }

// imageSegments is the segment count of s's state image: one per
// component, then the memory, the channel block and the cores.
func (s *System) imageSegments() int { return len(s.Components) + 3 }

// encodeImage is EncodeBinary recording, when ends is non-nil, the end
// offset of each of the image's segments (imageSegments of them),
// relative to the image's start. decodeImage records the same ends.
func (s *System) encodeImage(buf []byte, ends *[]int) []byte {
	base := len(buf)
	if ends != nil {
		*ends = (*ends)[:0]
	}
	for _, c := range s.Components {
		buf = c.AppendBinary(buf)
		if ends != nil {
			*ends = append(*ends, len(buf)-base)
		}
	}
	return s.appendTail(buf, base, ends)
}

// spliceImage appends EncodeBinary's image of s after one successful
// Apply to the state decoded from pre with segment ends segs
// (decodeImage), recording the successor's ends when ends is non-nil:
// every component but the one the move touched is copied from pre, and
// only that one, the memory, the channels and the cores are encoded
// afresh. A move that touched no component index encodes in full.
func (s *System) spliceImage(buf, pre []byte, segs []int, ends *[]int) []byte {
	t, n := s.touched, len(s.Components)
	if t < 0 || t >= n {
		return s.encodeImage(buf, ends)
	}
	base := len(buf)
	start := 0
	if t > 0 {
		start = segs[t-1]
	}
	buf = append(buf, pre[:start]...)
	buf = s.Components[t].AppendBinary(buf)
	shift := len(buf) - base - segs[t]
	buf = append(buf, pre[segs[t]:segs[n-1]]...)
	if ends != nil {
		e := append((*ends)[:0], segs[:t]...)
		for _, end := range segs[t:n] {
			e = append(e, end+shift)
		}
		*ends = e
	}
	return s.appendTail(buf, base, ends)
}

// splicedCopies returns the mask of the segments spliceImage copied from
// pre for the move just applied: bit i for every component i but the
// touched one, or none when the move touched no component index.
func (s *System) splicedCopies() uint64 {
	t, n := s.touched, len(s.Components)
	if t < 0 || t >= n {
		return 0
	}
	all := ^uint64(0)
	if n < 64 {
		all = 1<<n - 1
	}
	return all &^ (1 << t)
}

// appendTail appends the image's segments after the components: the
// shared memory, the channels and the cores, recording their ends
// relative to base when ends is non-nil.
func (s *System) appendTail(buf []byte, base int, ends *[]int) []byte {
	buf = s.Mem.AppendBinary(buf)
	if ends != nil {
		*ends = append(*ends, len(buf)-base)
	}
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
	if ends != nil {
		*ends = append(*ends, len(buf)-base)
	}
	for _, c := range s.Cores {
		buf = spec.AppendInt(buf, c.PC)
		buf = spec.AppendBool(buf, c.Issued)
		buf = spec.AppendUvarint(buf, uint64(len(c.Loads)))
		for _, v := range c.Loads {
			buf = spec.AppendInt(buf, v)
		}
	}
	if ends != nil {
		*ends = append(*ends, len(buf)-base)
	}
	return buf
}
