package spec

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func miniCache() *Machine {
	return &Machine{
		Name:   "mini-cache",
		Kind:   CacheCtrl,
		Init:   "I",
		Stable: []State{"I", "V"},
		Rows: []Transition{
			{From: "I", On: OnCore(OpLoad), Actions: []Action{Send("Get", ToDir, PayloadNone)}, Next: "IV"},
			{From: "IV", On: OnMsg("Data"), Actions: []Action{LoadMsgData, CoreDone}, Next: "V"},
			{From: "V", On: OnCore(OpLoad), Actions: []Action{CoreDone}, Next: "V"},
			{From: "V", On: OnCore(OpEvict), Next: "I"},
		},
	}
}

func miniDir() *Machine {
	return &Machine{
		Name:   "mini-dir",
		Kind:   DirCtrl,
		Init:   "V",
		Stable: []State{"V"},
		Rows: []Transition{
			{From: "V", On: OnMsg("Get"), Actions: []Action{Send("Data", ToMsgSrc, PayloadMem)}, Next: "V"},
		},
	}
}

func miniProtocol() *Protocol {
	return &Protocol{
		Name:  "mini",
		Model: "SC",
		Cache: miniCache(),
		Dir:   miniDir(),
		Msgs: map[MsgType]MsgInfo{
			"Get":  {VNet: VReq},
			"Data": {VNet: VResp, CarriesData: true},
		},
	}
}

func TestMachineValidate(t *testing.T) {
	if err := miniCache().Validate(); err != nil {
		t.Fatalf("valid machine rejected: %v", err)
	}
	m := miniCache()
	m.Init = ""
	if err := m.Validate(); err == nil {
		t.Error("missing init accepted")
	}
	m = miniCache()
	m.Init = "IV" // transient init
	if err := m.Validate(); err == nil {
		t.Error("transient init accepted")
	}
	m = miniCache()
	m.Rows = append(m.Rows, m.Rows[0]) // duplicate row
	if err := m.Validate(); err == nil {
		t.Error("duplicate row accepted")
	}
	m = miniCache()
	m.Rows[0].Actions = []Action{AddSharer} // directory action in cache
	if err := m.Validate(); err == nil {
		t.Error("directory action in cache accepted")
	}
	d := miniDir()
	d.Rows[0].Actions = []Action{CoreDone} // cache action in directory
	if err := d.Validate(); err == nil {
		t.Error("cache action in directory accepted")
	}
	d = miniDir()
	d.Sync = map[CoreOp]SyncBehavior{OpFence: {}}
	if err := d.Validate(); err == nil {
		t.Error("directory with sync hooks accepted")
	}
	m = miniCache()
	m.Rows[0].Next = ""
	if err := m.Validate(); err == nil {
		t.Error("empty next state accepted")
	}
}

func TestMachineLookup(t *testing.T) {
	p := miniProtocol()
	p.Freeze()
	m := p.Cache
	if tr := m.OnCoreOp("I", OpLoad); tr == nil || tr.Next != "IV" {
		t.Fatalf("OnCoreOp(I, Load) = %v", tr)
	}
	if tr := m.OnCoreOp("I", OpStore); tr != nil {
		t.Error("unexpected store transition")
	}
	if st := m.CoreStep(m.StateID("I"), OpLoad); st == nil || m.StateName(st.Next) != "IV" {
		t.Fatalf("CoreStep(I, Load) = %v", st)
	}
	if st := m.CoreStep(m.StateID("I"), OpStore); st != nil {
		t.Error("unexpected store row")
	}
	msg := &Msg{Type: p.MsgID("Data")}
	if st := m.MsgStep(m.StateID("IV"), msg, MsgCtx{}); st == nil || m.StateName(st.Next) != "V" {
		t.Fatalf("MsgStep(IV, Data) = %v", st)
	}
	if st := m.MsgStep(m.StateID("I"), msg, MsgCtx{}); st != nil {
		t.Error("stall expected in I")
	}
	if st := m.MsgStep(m.StateID("IV"), &Msg{Type: NoMsg}, MsgCtx{}); st != nil {
		t.Error("a message outside the vocabulary matched a row")
	}
	if m.StateID("nope") != NoState || m.StateName(NoState) != "" || m.CoreStep(NoState, OpLoad) != nil {
		t.Error("NoState is not absent")
	}
}

func TestConditionalLookupPriority(t *testing.T) {
	m := &Machine{
		Name: "cond", Kind: DirCtrl, Init: "S", Stable: []State{"S"},
		Rows: []Transition{
			{From: "S", On: OnMsg("Put"), Next: "S"},                        // fallback
			{From: "S", On: OnMsgCond("Put", CondFromOwner), Next: "OWNER"}, // conditional
			{From: "S", On: OnMsgCond("Req", CondAckPos), Next: "POS"},
			{From: "S", On: OnMsgCond("Req", CondAckZero), Next: "ZERO"},
			{From: "S", On: OnMsgCond("Last", CondLastSharer), Next: "LAST"},
			{From: "S", On: OnMsgCond("Last", CondNotLastSharer), Next: "MORE"},
		},
	}
	p := &Protocol{Name: "cond", Dir: m, Msgs: map[MsgType]MsgInfo{"Put": {}, "Req": {}, "Last": {}}}
	p.Freeze()
	s := m.StateID("S")
	next := func(t MsgType, ack int, ctx MsgCtx) State {
		return m.StateName(m.MsgStep(s, &Msg{Type: p.MsgID(t), Ack: ack}, ctx).Next)
	}
	if got := next("Put", 0, MsgCtx{IsOwner: true}); got != "OWNER" {
		t.Errorf("conditional row not preferred: %v", got)
	}
	if got := next("Put", 0, MsgCtx{}); got != "S" {
		t.Errorf("fallback not used: %v", got)
	}
	if got := next("Req", 3, MsgCtx{}); got != "POS" {
		t.Errorf("ack>0 row not matched: %v", got)
	}
	if got := next("Req", 0, MsgCtx{}); got != "ZERO" {
		t.Errorf("ack=0 row not matched: %v", got)
	}
	if got := next("Last", 0, MsgCtx{IsLastSharer: true}); got != "LAST" {
		t.Errorf("last-sharer row not matched: %v", got)
	}
	if got := next("Last", 0, MsgCtx{}); got != "MORE" {
		t.Errorf("not-last-sharer row not matched: %v", got)
	}
}

// TestVocabNumbering pins how a vocabulary numbers names: in the order
// their length-prefixed images sort (shorter first, then bytewise), with
// plain name order kept as a rank, and the same names numbered the same
// way by every vocabulary built from them.
func TestVocabNumbering(t *testing.T) {
	v := mustVocab(t, "GetS", "Inv", "Data", "GetM", "Inv", "", "PutAck")
	want := []MsgType{"Inv", "Data", "GetM", "GetS", "PutAck"}
	if v.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", v.Len(), len(want))
	}
	for i, n := range want {
		if v.Name(MsgID(i)) != n || v.ID(n) != MsgID(i) {
			t.Errorf("id %d: name %q, ID(%q) = %d", i, v.Name(MsgID(i)), n, v.ID(n))
		}
	}
	for i := 1; i < len(want); i++ {
		a, b := AppendString(nil, string(want[i-1])), AppendString(nil, string(want[i]))
		if string(a) >= string(b) {
			t.Errorf("%q numbered before %q but its image sorts after", want[i-1], want[i])
		}
	}
	// Name order: Data GetM GetS Inv PutAck.
	for r, n := range []MsgType{"Data", "GetM", "GetS", "Inv", "PutAck"} {
		if got := v.NameRank(v.ID(n)); got != r {
			t.Errorf("NameRank(%q) = %d, want %d", n, got, r)
		}
	}
	if v.ID("Nope") != NoMsg || v.Name(NoMsg) != "" {
		t.Error("a name outside the vocabulary has an id")
	}
	if w := mustVocab(t, "PutAck", "GetM", "Data", "GetS", "Inv"); w.ID("GetS") != v.ID("GetS") {
		t.Error("the same names numbered differently")
	}
	m := Msg{Type: v.ID("Data"), Addr: 3, Src: 1, Dst: 2, Data: 7, HasData: true}
	var d Dec
	img := v.AppendMsg(nil, &m)
	d.Reset(img)
	if got := v.DecodeMsg(&d); got != m || d.Err() != nil || d.Len() != 0 {
		t.Errorf("named image round trip: %+v, %v", got, d.Err())
	}
	if want := append(AppendString(nil, "Data"), m.AppendBinary(nil)[1:]...); string(img) != string(want) {
		t.Errorf("named image %x, want the numbered image with the name for the type %x", img, want)
	}
	d.Reset(mustVocab(t, "Foo").AppendMsg(nil, &Msg{}))
	if v.DecodeMsg(&d); d.Err() == nil {
		t.Error("a named image of a foreign type decoded")
	}
}

func mustVocab(t *testing.T, names ...MsgType) *Vocab {
	t.Helper()
	v, err := NewVocab(names)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestVocabBound pins that a protocol declaring more message types than
// a vocabulary numbers, or a machine with more states than a StateID
// numbers, is refused by Validate, and a vocabulary of too many names is
// an error, not a panic.
func TestVocabBound(t *testing.T) {
	p := miniProtocol()
	var names []MsgType
	for i := len(p.Msgs); i < maxVocab; i++ {
		n := MsgType(fmt.Sprintf("M%d", i))
		p.Msgs[n] = MsgInfo{}
		names = append(names, n)
	}
	if err := p.Validate(); err == nil {
		t.Error("a protocol with more message types than a vocabulary numbers validated")
	}
	if _, err := NewVocab(append(names, "Get", "Data", "Extra")); err == nil {
		t.Error("a vocabulary past its bound was built")
	}
	m := miniCache()
	for i := 0; i < 1<<16; i++ {
		m.Stable = append(m.Stable, State(fmt.Sprintf("S%d", i)))
	}
	if err := m.Validate(); err == nil {
		t.Error("a machine with more states than a StateID numbers validated")
	}
}

// TestMsgIsPointerFree pins that a message holds no pointer, string,
// slice, map or other reference: message buffers give the garbage
// collector nothing to scan, and a message compares and hashes by value.
func TestMsgIsPointerFree(t *testing.T) {
	typ := reflect.TypeOf(Msg{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch f.Type.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		default:
			t.Errorf("Msg.%s is a %s", f.Name, f.Type.Kind())
		}
	}
}

func TestMachineStatesAndClone(t *testing.T) {
	m := miniCache()
	states := m.States()
	if states[0] != "I" || states[1] != "V" || states[2] != "IV" {
		t.Errorf("states = %v", states)
	}
	cp := m.Clone()
	cp.Rows[0].Next = "ZZ"
	if m.Rows[0].Next == "ZZ" {
		t.Error("clone aliases rows")
	}
	if !m.IsStable("I") || m.IsStable("IV") {
		t.Error("IsStable wrong")
	}
	if len(m.TransitionsFrom("V")) != 2 {
		t.Errorf("TransitionsFrom(V) = %d rows", len(m.TransitionsFrom("V")))
	}
	if !strings.Contains(m.Format(), "mini-cache") {
		t.Error("Format missing name")
	}
}

func TestProtocolValidate(t *testing.T) {
	p := miniProtocol()
	if err := p.Validate(); err != nil {
		t.Fatalf("valid protocol rejected: %v", err)
	}
	p = miniProtocol()
	delete(p.Msgs, "Data")
	if err := p.Validate(); err == nil {
		t.Error("undeclared message accepted")
	}
	p = miniProtocol()
	p.Model = "XXX"
	if err := p.Validate(); err == nil {
		t.Error("unknown model accepted")
	}
	p = miniProtocol()
	p.AckType = "Nack"
	if err := p.Validate(); err == nil {
		t.Error("undeclared ack type accepted")
	}
	p = miniProtocol()
	p.Dir = nil
	if err := p.Validate(); err == nil {
		t.Error("missing directory accepted")
	}
}

func TestStringMethods(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{OpLoad.String(), "Load"},
		{OpEvict.String(), "Evict"},
		{CondAckPos.String(), "ack>0"},
		{CondFromOwner.String(), "from-owner"},
		{OnCore(OpStore).String(), "Store"},
		{OnMsgCond("Data", CondAckZero).String(), "Data[ack=0]"},
		{Send("Get", ToDir, PayloadNone).String(), "send(Get→dir,-)"},
		{Fwd("FwdGet").String(), "send(FwdGet→owner,-){fwdreq}"},
		{InvSharers("Inv").String(), "invSharers(Inv)"},
		{CoreDone.String(), "coreDone"},
		{CacheCtrl.String(), "cache"},
		{DirCtrl.String(), "directory"},
	}
	for i, c := range cases {
		if c.got != c.want {
			t.Errorf("case %d: got %q want %q", i, c.got, c.want)
		}
	}
	v := mustVocab(t, "Data")
	m := Msg{Type: v.ID("Data"), Addr: 3, Src: 1, Dst: 2, Data: 7, HasData: true, Ack: 2}
	s := v.Format(m)
	if !strings.Contains(s, "Data a3 1->2") || !strings.Contains(s, "data=7") || !strings.Contains(s, "ack=2") {
		t.Errorf("Vocab.Format = %q", s)
	}
	if s := m.String(); !strings.Contains(s, "#0 a3 1->2") {
		t.Errorf("Msg.String() = %q", s)
	}
	r := CoreReq{Op: OpStore, Addr: 1, Value: 9}
	if r.String() != "Store a1=9" {
		t.Errorf("CoreReq.String() = %q", r.String())
	}
	if CoreReq.String(CoreReq{Op: OpFence}) != "Fence" {
		t.Error("sync CoreReq string wrong")
	}
}

func TestTransitionString(t *testing.T) {
	tr := Transition{From: "I", On: OnCore(OpLoad), Actions: []Action{CoreDone}, Next: "V"}
	if got := tr.String(); got != "I --Load/[coreDone]--> V" {
		t.Errorf("Transition.String() = %q", got)
	}
}

func TestMemory(t *testing.T) {
	m := NewMemory()
	if m.Read(5) != 0 {
		t.Error("fresh memory not zero")
	}
	m.Write(5, 9)
	if m.Read(5) != 9 {
		t.Error("write lost")
	}
	cp := m.Clone()
	cp.Write(5, 1)
	if m.Read(5) != 9 {
		t.Error("clone aliases storage")
	}
	// Writing the init value keeps the map canonical.
	m.Write(5, 0)
	var a, b SnapshotWriter
	m.Snapshot(&a)
	NewMemory().Snapshot(&b)
	if a.String() != b.String() {
		t.Errorf("canonical snapshot broken: %q vs %q", a.String(), b.String())
	}
}
