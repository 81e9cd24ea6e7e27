package spec_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"heterogen/internal/protocols"
	"heterogen/internal/spec"
)

// refDir is the reference model for DirInst's address-indexed line table:
// a map of materialized lines, sorted at encode time. It applies the
// line-level effects of a directory transition itself (sends and memory
// writes leave no trace in a directory's image).
//
// The model works on names: its lines hold state names and it matches
// rows by scanning the machine's Rows, so it checks the numbered runtime
// against the specification layer.
type refDir struct {
	id    spec.NodeID
	proto *spec.Protocol
	lines map[spec.Addr]refLine
}

// refLine is a directory line with its state named.
type refLine struct {
	State   spec.State
	Sharers spec.NodeSet
	Owner   spec.NodeID
}

func (r *refDir) init() refLine {
	return refLine{State: r.proto.Dir.Init, Owner: spec.NoNode}
}

func (r *refDir) line(a spec.Addr) refLine {
	if l, ok := r.lines[a]; ok {
		return l
	}
	return r.init()
}

func (r *refDir) materialize(a spec.Addr) {
	if _, ok := r.lines[a]; !ok {
		r.lines[a] = r.init()
	}
}

func (r *refDir) compact(a spec.Addr) {
	if l, ok := r.lines[a]; ok && l == r.init() {
		delete(r.lines, a)
	}
}

// transition is the row a message takes, or nil. forwardsNowhere reports
// a row that forwards to an owner the line does not have, which a real
// directory treats as a protocol bug (a panic): the test does not send it.
func (r *refDir) transition(mt spec.MsgType, m *spec.Msg) (t *spec.Transition, forwardsNowhere bool) {
	l := r.line(m.Addr)
	isOwner := m.Src == l.Owner
	isLast := l.Sharers.Len() == 1 && l.Sharers.Has(m.Src)
	for i := range r.proto.Dir.Rows {
		row := &r.proto.Dir.Rows[i]
		if row.From != l.State || row.On.IsCore() || row.On.Msg != mt {
			continue
		}
		var match bool
		switch row.On.Cond {
		case spec.CondAny:
			if t == nil {
				t = row
			}
		case spec.CondAckZero:
			match = m.Ack == 0
		case spec.CondAckPos:
			match = m.Ack > 0
		case spec.CondFromOwner:
			match = isOwner
		case spec.CondNotOwner:
			match = !isOwner
		case spec.CondLastSharer:
			match = isLast
		case spec.CondNotLastSharer:
			match = !isLast
		}
		if match {
			t = row
			break
		}
	}
	if t == nil {
		return nil, false
	}
	for _, act := range t.Actions {
		if act.Op == spec.ActSend && act.Dst == spec.ToOwner && l.Owner == spec.NoNode {
			return t, true
		}
	}
	return t, false
}

func (r *refDir) deliver(m *spec.Msg, t *spec.Transition) {
	l := r.line(m.Addr)
	for _, act := range t.Actions {
		switch act.Op {
		case spec.ActAddSharer:
			l.Sharers.Add(m.Src)
		case spec.ActOwnerToSharers:
			if l.Owner != spec.NoNode {
				l.Sharers.Add(l.Owner)
			}
		case spec.ActRemoveSharer:
			l.Sharers.Remove(m.Src)
		case spec.ActClearSharers:
			l.Sharers.Clear()
		case spec.ActSetOwner:
			l.Owner = m.Src
		case spec.ActClearOwner:
			l.Owner = spec.NoNode
		}
	}
	l.State = t.Next
	r.lines[m.Addr] = l
	r.compact(m.Addr)
}

func (r *refDir) addrs() []spec.Addr {
	out := make([]spec.Addr, 0, len(r.lines))
	for a := range r.lines {
		out = append(out, a)
	}
	slices.Sort(out)
	return out
}

func (r *refDir) encode() []byte {
	buf := spec.AppendInt(nil, int(r.id))
	buf = spec.AppendUvarint(buf, uint64(len(r.lines)))
	for _, a := range r.addrs() {
		l := r.lines[a]
		buf = spec.AppendInt(buf, int(a))
		buf = spec.AppendInt(buf, slices.Index(r.proto.Dir.States(), l.State))
		buf = spec.AppendInt(buf, int(l.Owner))
		buf = spec.AppendUvarint(buf, uint64(l.Sharers.Len()))
		l.Sharers.Each(func(s spec.NodeID) { buf = spec.AppendInt(buf, int(s)) })
	}
	return buf
}

func (r *refDir) snapshot() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "dir%d{", r.id)
	for _, a := range r.addrs() {
		l := r.lines[a]
		sh := []int{}
		l.Sharers.Each(func(s spec.NodeID) { sh = append(sh, int(s)) })
		fmt.Fprintf(&b, "a%d:%s,o%d,s%v;", a, l.State, l.Owner, sh)
	}
	b.WriteString("}")
	return b.String()
}

func (r *refDir) stable() bool {
	for _, l := range r.lines {
		if !r.proto.Dir.IsStable(l.State) {
			return false
		}
	}
	return true
}

// sink discards a directory's sends.
type sink struct{}

func (sink) Send(spec.Msg) {}

// TestDirTableMatchesReference drives random sequences of deliveries,
// materializations, compactions, clones and decodes through a DirInst and
// the map-plus-sort reference model: after every step the directory's
// image, Snapshot, Stable verdict and line states must be the model's.
// Addresses mix a dense low range with sparse far ones, so the table
// grows, holds absent holes and is decoded into receivers whose old
// table was larger.
func TestDirTableMatchesReference(t *testing.T) {
	const id = spec.NodeID(9)
	for _, name := range []string{protocols.NameMSI, protocols.NameMESI, protocols.NameRCCO} {
		p := protocols.MustByName(name)
		types := p.MsgTypes()
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			mem := spec.NewMemory()
			d := spec.NewDirInst(id, p, mem)
			ref := &refDir{id: id, proto: p, lines: map[spec.Addr]refLine{}}
			addr := func() spec.Addr {
				if rng.Intn(8) == 0 {
					return spec.Addr(100 + rng.Intn(400))
				}
				return spec.Addr(rng.Intn(12))
			}
			delivered := 0
			for step := 0; step < 1500; step++ {
				op := rng.Intn(20)
				switch {
				case op < 12:
					mt := types[rng.Intn(len(types))]
					m := spec.Msg{Type: p.MsgID(mt), Addr: addr(),
						Src: spec.NodeID(rng.Intn(4)), Dst: id, Req: spec.NodeID(rng.Intn(4)),
						Data: rng.Intn(5), HasData: rng.Intn(2) == 0, Ack: rng.Intn(3), VNet: p.VNetOf(mt)}
					tr, bad := ref.transition(mt, &m)
					if bad {
						continue
					}
					if got := d.Deliver(sink{}, m); got != (tr != nil) {
						t.Fatalf("%s seed %d step %d: Deliver(%s) = %t, reference %t", name, seed, step, p.Vocab().Format(m), got, tr != nil)
					}
					if tr != nil {
						ref.deliver(&m, tr)
						delivered++
					}
				case op < 14:
					a := addr()
					d.Line(a)
					ref.materialize(a)
				case op < 16:
					a := addr()
					d.CompactAt(a)
					ref.compact(a)
				case op < 18:
					cp := d.CloneDir(mem)
					// The original must not share lines with the clone.
					d.Line(spec.Addr(rng.Intn(12))).Owner = 3
					d = cp
				default:
					// Decode into a fresh receiver or one that holds an
					// unrelated, larger table.
					recv := spec.NewDirInst(id, p, mem)
					if rng.Intn(2) == 0 {
						for i := 0; i < 5; i++ {
							recv.Line(spec.Addr(rng.Intn(600))).Owner = 2
						}
					}
					dec := spec.NewDec(d.AppendBinary(nil))
					if err := recv.DecodeState(dec); err != nil || dec.Len() != 0 {
						t.Fatalf("%s seed %d step %d: decode: %v (%d bytes left)", name, seed, step, err, dec.Len())
					}
					d = recv
				}
				if got, want := d.AppendBinary(nil), ref.encode(); !bytes.Equal(got, want) {
					t.Fatalf("%s seed %d step %d: image\n got %x\nwant %x", name, seed, step, got, want)
				}
				var sw spec.SnapshotWriter
				d.Snapshot(&sw)
				if got, want := sw.String(), ref.snapshot(); got != want {
					t.Fatalf("%s seed %d step %d: snapshot\n got %s\nwant %s", name, seed, step, got, want)
				}
				if got, want := d.Stable(), ref.stable(); got != want {
					t.Fatalf("%s seed %d step %d: Stable = %t, reference %t", name, seed, step, got, want)
				}
				if a := addr(); p.Dir.StateName(d.LineState(a)) != ref.line(a).State {
					t.Fatalf("%s seed %d step %d: LineState(%d) = %s, reference %s", name, seed, step, a, p.Dir.StateName(d.LineState(a)), ref.line(a).State)
				}
			}
			if delivered < 100 {
				t.Errorf("%s seed %d: only %d deliveries took a transition", name, seed, delivered)
			}
		}
	}
}

// dirImage is a directory image with one pristine line per address.
func dirImage(p *spec.Protocol, id spec.NodeID, addrs ...int) []byte {
	p.Freeze()
	buf := spec.AppendInt(nil, int(id))
	buf = spec.AppendUvarint(buf, uint64(len(addrs)))
	for _, a := range addrs {
		buf = spec.AppendInt(buf, a)
		buf = spec.AppendInt(buf, int(p.Dir.InitID())-1)
		buf = spec.AppendInt(buf, int(spec.NoNode))
		buf = spec.AppendUvarint(buf, 0)
	}
	return buf
}

// TestDirDecodeStateRejectsBadAddresses pins DecodeState's address checks:
// an image whose line addresses are negative, repeated, descending or at
// or above MaxDecodeAddr fails with an error — without a panic, and
// without growing the line table toward the bad address — and leaves the
// receiver able to decode a good image.
func TestDirDecodeStateRejectsBadAddresses(t *testing.T) {
	const id = spec.NodeID(4)
	p := protocols.MustByName(protocols.NameMESI)
	good := dirImage(p, id, 0, 7, 4095)
	for _, tc := range []struct {
		name  string
		addrs []int
	}{
		{"negative", []int{-1}},
		{"negative after good", []int{2, -5}},
		{"repeated", []int{3, 3}},
		{"descending", []int{5, 2}},
		{"at the bound", []int{spec.MaxDecodeAddr}},
		{"far above the bound", []int{1 << 40}},
		{"above the bound after good", []int{1, spec.MaxDecodeAddr + 9}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := spec.NewDirInst(id, p, spec.NewMemory())
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						err = nil
						t.Errorf("DecodeState panicked: %v", r)
					}
				}()
				return d.DecodeState(spec.NewDec(dirImage(p, id, tc.addrs...)))
			}()
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Errorf("addresses %v decoded without an error", tc.addrs)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Errorf("refusing addresses %v allocated %d bytes", tc.addrs, grew)
			}
			if err := d.DecodeState(spec.NewDec(good)); err != nil {
				t.Fatalf("good image after a refused one: %v", err)
			}
			if got := d.AppendBinary(nil); !bytes.Equal(got, good) {
				t.Errorf("good image re-encodes as %x, want %x", got, good)
			}
		})
	}
}

// TestDirDeliverRejectsFarAddress pins the address bound inside the
// directory itself: a message naming an address at or above
// MaxDecodeAddr (here 2^40) fails with the same clear panic a negative
// address gives, before the line table grows toward it, and leaves the
// directory empty.
func TestDirDeliverRejectsFarAddress(t *testing.T) {
	p := protocols.MustByName(protocols.NameMSI)
	for _, a := range []spec.Addr{1 << 40, spec.MaxDecodeAddr, -1} {
		d := spec.NewDirInst(4, p, spec.NewMemory())
		m := spec.Msg{Type: p.MsgID(protocols.MsgGetS), Addr: a, Src: 1, Dst: 4, Req: 1, VNet: spec.VReq}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		msg := func() (msg any) {
			defer func() { msg = recover() }()
			d.Deliver(sink{}, m)
			return nil
		}()
		runtime.ReadMemStats(&after)
		if s, _ := msg.(string); !strings.Contains(s, "outside [0, ") {
			t.Errorf("delivery at address %d: got %v, want a panic naming the bound", a, msg)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
			t.Errorf("refusing address %d allocated %d bytes", a, grew)
		}
		if img := d.AppendBinary(nil); len(img) != 2 {
			t.Errorf("refusing address %d left lines: image %x", a, img)
		}
	}
}
