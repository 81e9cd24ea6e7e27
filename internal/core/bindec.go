package core

import (
	"heterogen/internal/spec"
)

// Binary state codec for the merged directory: one image that is at once
// the model checker's visited-set key and exact state image
// (spec.StateCodec). Field for field it carries exactly what Snapshot
// prints, so the text form, the key and the image
// distinguish the same states, and DecodeState rebuilds the state the
// image was taken from.
//
// The one derived field left out is a task's core-op sequence: a pure
// function of the fusion's armor sequences and the bridge address, it is
// re-derived from the fusion at decode time, so an image stays a few
// dozen bytes per bridge instead of re-encoding whole request sequences.

func (t *proxyTask) appendBinary(buf []byte) []byte {
	buf = spec.AppendInt(buf, t.cluster)
	buf = spec.AppendInt(buf, t.proxyIdx)
	buf = spec.AppendInt(buf, t.idx)
	buf = spec.AppendBool(buf, t.issued)
	buf = spec.AppendBool(buf, t.evicting)
	buf = spec.AppendBool(buf, t.done)
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

func (br *bridge) appendBinary(buf []byte) []byte {
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
		buf = br.fetch.appendBinary(buf)
	}
	buf = spec.AppendUvarint(buf, uint64(len(br.props)))
	for _, t := range br.props {
		buf = t.appendBinary(buf)
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
	spec.DecodeMsgInto(&br.orig, dec)
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

// AppendBinary implements spec.StateCodec (the shared memory is encoded
// separately by the host, as with Snapshot).
func (d *MergedDir) AppendBinary(buf []byte) []byte {
	for _, dir := range d.dirs {
		buf = dir.AppendBinary(buf)
	}
	for _, pool := range d.proxies {
		for _, p := range pool {
			buf = p.AppendBinary(buf)
		}
	}
	buf = spec.AppendUvarint(buf, uint64(len(d.owners)))
	for _, c := range d.owners {
		buf = spec.AppendInt(buf, int(c.a))
		buf = spec.AppendInt(buf, c.cluster)
	}
	buf = spec.AppendUvarint(buf, uint64(len(d.bridges)))
	for _, br := range d.bridges {
		buf = br.appendBinary(buf)
	}
	buf = spec.AppendUvarint(buf, uint64(d.busySrc.Len()))
	d.busySrc.Each(func(s spec.NodeID) { buf = spec.AppendInt(buf, int(s)) })
	buf = spec.AppendUvarint(buf, uint64(d.proxyBusy.Len()))
	d.proxyBusy.Each(func(p spec.NodeID) { buf = spec.AppendInt(buf, int(p)) })
	return buf
}

// DecodeState implements spec.StateCodec: the inverse of AppendBinary over
// a structurally-identical receiver (same fusion, layout and pool shape —
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
	d.nWaits = [len(d.nWaits)]int{}
	d.lazyWake = len(d.bridges) > 0
	return dec.Err()
}

// Freeze freezes every constituent protocol (spec.Protocol.Freeze), which
// Fuse has already done: a fusion is ready to share between goroutines
// when Fuse returns.
func (f *Fusion) Freeze() {
	for _, p := range f.Protocols {
		p.Freeze()
	}
}

var _ spec.StateCodec = (*MergedDir)(nil)
