package core

import (
	"heterogen/internal/spec"
)

// Spill-frontier state codec for the merged directory (spec.StateCodec).
//
// The visited-set encoding (binenc.go) only has to be injective over
// reachable states, so it drops fields that are either derived (a task's
// core-op sequence is a pure function of the fusion's armor sequences and
// the bridge address) or covered indirectly (captured values, the handshake
// partner). The spill codec must rebuild the state exactly, so it extends
// the bridge/task records with those fields and re-derives each task's seq
// from the fusion at decode time — spilled bytes stay a few dozen per
// bridge instead of re-encoding whole request sequences.

func (t *proxyTask) appendState(buf []byte) []byte {
	buf = t.appendBinary(buf)
	buf = spec.AppendInt(buf, t.captured)
	buf = spec.AppendBool(buf, t.hasCaptured)
	return buf
}

// decodeTaskInto rebuilds a task over t, keeping t's seq backing array for
// the caller to refill (the seq is re-derived from the fusion, not decoded).
// Task objects are never shared between merged directories — bridge.clone
// deep-copies them — so overwriting in place is exact.
func decodeTaskInto(t *proxyTask, d *spec.Dec) {
	seq := t.seq[:0]
	*t = proxyTask{seq: seq}
	t.cluster = d.Int()
	t.proxyIdx = d.Int()
	t.idx = d.Int()
	t.issued = d.Bool()
	t.evicting = d.Bool()
	t.done = d.Bool()
	t.captured = d.Int()
	t.hasCaptured = d.Bool()
}

func (br *bridge) appendState(buf []byte) []byte {
	buf = spec.AppendInt(buf, int(br.addr))
	buf = spec.AppendInt(buf, br.origin)
	buf = spec.AppendInt(buf, int(br.phase))
	buf = spec.AppendBool(buf, br.isWrite)
	buf = spec.AppendInt(buf, br.value)
	buf = spec.AppendBool(buf, br.hasValue)
	buf = spec.AppendBool(buf, br.hsSent)
	buf = spec.AppendBool(buf, br.hsDone)
	buf = spec.AppendInt(buf, br.hsWith)
	buf = br.orig.AppendBinary(buf)
	if br.fetch == nil {
		buf = spec.AppendBool(buf, false)
	} else {
		buf = spec.AppendBool(buf, true)
		buf = br.fetch.appendState(buf)
	}
	buf = spec.AppendUvarint(buf, uint64(len(br.props)))
	for _, t := range br.props {
		buf = t.appendState(buf)
	}
	return buf
}

// decodeBridgeInto rebuilds a bridge over br, reusing its fetch/prop task
// objects and their seq arrays when the shapes line up. Safe for the same
// reason as decodeTaskInto: bridge.clone deep-copies, so a bridge reached
// through d.bridges is owned by exactly this directory.
func (d *MergedDir) decodeBridgeInto(br *bridge, dec *spec.Dec) {
	oldFetch, oldProps := br.fetch, br.props
	*br = bridge{}
	br.addr = spec.Addr(dec.Int())
	br.origin = dec.Int()
	br.phase = bridgePhase(dec.Int())
	br.isWrite = dec.Bool()
	br.value = dec.Int()
	br.hasValue = dec.Bool()
	br.hsSent = dec.Bool()
	br.hsDone = dec.Bool()
	br.hsWith = dec.Int()
	br.orig = spec.DecodeMsg(dec)
	if dec.Bool() {
		if oldFetch == nil {
			oldFetch = &proxyTask{}
		}
		decodeTaskInto(oldFetch, dec)
		oldFetch.seq = reqsOfInto(oldFetch.seq, d.fusion.LoadSeqs[oldFetch.cluster], br.addr, 0)
		br.fetch = oldFetch
	}
	n := dec.Uvarint()
	props := oldProps[:0]
	for i := uint64(0); i < n && dec.Err() == nil; i++ {
		var t *proxyTask
		if int(i) < len(oldProps) {
			t = oldProps[i]
		} else {
			t = &proxyTask{}
		}
		decodeTaskInto(t, dec)
		t.seq = reqsOfInto(t.seq, d.fusion.StoreSeqs[t.cluster], br.addr, 0)
		props = append(props, t)
	}
	br.props = props
}

// AppendState implements spec.StateCodec. The shared LLC/memory is encoded
// by the host once, as with AppendBinary.
func (d *MergedDir) AppendState(buf []byte) []byte {
	for _, dir := range d.dirs {
		buf = dir.AppendState(buf)
	}
	for _, pool := range d.proxies {
		for _, p := range pool {
			buf = p.AppendState(buf)
		}
	}
	buf = spec.AppendUvarint(buf, uint64(len(d.owners)))
	for _, c := range d.owners {
		buf = spec.AppendInt(buf, int(c.a))
		buf = spec.AppendInt(buf, c.cluster)
	}
	buf = spec.AppendUvarint(buf, uint64(len(d.bridges)))
	for _, br := range d.bridges {
		buf = br.appendState(buf)
	}
	buf = spec.AppendUvarint(buf, uint64(d.busySrc.Len()))
	d.busySrc.Each(func(s spec.NodeID) { buf = spec.AppendInt(buf, int(s)) })
	buf = spec.AppendUvarint(buf, uint64(d.proxyBusy.Len()))
	d.proxyBusy.Each(func(p spec.NodeID) { buf = spec.AppendInt(buf, int(p)) })
	return buf
}

// DecodeState implements spec.StateCodec: the inverse of AppendState over a
// structurally-identical receiver (same fusion, layout and pool shape —
// e.g. a Clone of the system this state was encoded from).
func (d *MergedDir) DecodeState(dec *spec.Dec) error {
	for _, dir := range d.dirs {
		if err := dir.DecodeState(dec); err != nil {
			return err
		}
	}
	for _, pool := range d.proxies {
		for _, p := range pool {
			if err := p.DecodeState(dec); err != nil {
				return err
			}
		}
	}
	n := dec.Uvarint()
	d.owners = d.owners[:0]
	for i := uint64(0); i < n && dec.Err() == nil; i++ {
		a := spec.Addr(dec.Int())
		d.owners = append(d.owners, ownerCell{a: a, cluster: dec.Int()})
	}
	n = dec.Uvarint()
	old := d.bridges
	d.bridges = d.bridges[:0]
	for i := uint64(0); i < n && dec.Err() == nil; i++ {
		var br *bridge
		if int(i) < len(old) {
			br = old[i] // d.bridges[:0] kept the backing array; reuse the object
		} else {
			br = &bridge{}
		}
		d.decodeBridgeInto(br, dec)
		d.bridges = append(d.bridges, br)
	}
	d.busySrc = spec.DecodeNodeSet(dec)
	d.proxyBusy = spec.DecodeNodeSet(dec)
	// The decoded bridges record no waits: the first advance drives them.
	d.lazyWake = len(d.bridges) > 0
	return dec.Err()
}

var _ spec.StateCodec = (*MergedDir)(nil)
