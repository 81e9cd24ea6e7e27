package spec

import (
	"fmt"
	"sort"
	"strings"

	"heterogen/internal/memmodel"
)

// This file implements a small line-oriented protocol description language
// in the spirit of ProtoGen's PCC input format (§IV, artifact appendix
// A.3.2): protocols are written as stable-state controller tables and
// parsed into spec.Protocol values, so users can define new atomic
// protocols without writing Go (artifact §A.6). The built-in protocols
// are written in it too (internal/protocols/pcc). Format (one declaration
// per line, '#' comments):
//
//	protocol MSI model SC [acktype InvAck] [class invalidation|update|lease]
//	message GetS req            # vnet: req | fwd | resp; optional "data"
//	message Data resp data
//	cache init I stable I S M   # begins the cache controller section
//	  I Load -> IS_D : send GetS dir
//	  IS_D msg Data -> S : loadmsg, coredone
//	  IM_AD msg Data ack>0 -> IM_A : loadmsg, setacks
//	  IM_A lastack -> M : storevalue, coredone
//	  sync Acquire invalidate V
//	  sync Release writeback D wait
//	  invalidateonfill S
//	dir init I stable I S M     # begins the directory controller section
//	  S msg GetM -> M : sendack Data msgsrc mem, invsharers Inv, clearsharers, setowner
//	  M msg PutM from-owner -> I : writemem, clearowner, send PutAck msgsrc
//
// Event conditions: ack=0, ack>0, from-owner, not-owner, last, notlast.
// Send destinations: dir, msgsrc, msgreq, owner; payloads: line, store,
// mem, msg (default none); flags: ack (sharer ack count), fwdreq.

// ParsePCC parses a protocol description.
func ParsePCC(src string) (*Protocol, error) {
	p := &Protocol{Msgs: map[MsgType]MsgInfo{}}
	var cur *Machine // current controller section
	for ln, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		err := func() error {
			switch f[0] {
			case "protocol":
				return parseProtocolLine(p, f)
			case "message":
				return parseMessageLine(p, f)
			case "cache", "dir":
				m, err := parseSectionLine(f)
				if err != nil {
					return err
				}
				if f[0] == "cache" {
					m.Kind = CacheCtrl
					m.Name = p.Name + "-cache"
					p.Cache = m
				} else {
					m.Kind = DirCtrl
					m.Name = p.Name + "-dir"
					p.Dir = m
				}
				cur = m
				return nil
			case "sync":
				if cur == nil || cur.Kind != CacheCtrl {
					return fmt.Errorf("sync outside cache section")
				}
				return parseSyncLine(cur, f)
			case "invalidateonfill":
				if cur == nil || cur.Kind != CacheCtrl {
					return fmt.Errorf("invalidateonfill outside cache section")
				}
				for _, s := range f[1:] {
					cur.InvalidateOnFill = append(cur.InvalidateOnFill, State(s))
				}
				return nil
			default:
				if cur == nil {
					return fmt.Errorf("transition before a cache/dir section")
				}
				return parseTransitionLine(cur, line)
			}
		}()
		if err != nil {
			return nil, fmt.Errorf("pcc: line %d: %w", ln+1, err)
		}
	}
	if p.Name == "" {
		return nil, fmt.Errorf("pcc: missing protocol declaration")
	}
	p.shareNames()
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("pcc: %w", err)
	}
	return p, nil
}

func parseProtocolLine(p *Protocol, f []string) error {
	if len(f) < 2 {
		return fmt.Errorf("protocol needs a name")
	}
	p.Name = f[1]
	for i := 2; i+1 < len(f); i += 2 {
		switch f[i] {
		case "model":
			p.Model = memmodel.ID(f[i+1])
		case "acktype":
			p.AckType = MsgType(f[i+1])
		case "class":
			switch f[i+1] {
			case "invalidation":
				p.Class = ClassInvalidation
			case "update":
				p.Class = ClassUpdate
			case "lease":
				p.Class = ClassLease
			default:
				return fmt.Errorf("unknown class %q", f[i+1])
			}
		default:
			return fmt.Errorf("unknown protocol attribute %q", f[i])
		}
	}
	return nil
}

func parseMessageLine(p *Protocol, f []string) error {
	if len(f) < 3 {
		return fmt.Errorf("message needs a name and vnet")
	}
	info := MsgInfo{}
	switch f[2] {
	case "req":
		info.VNet = VReq
	case "fwd":
		info.VNet = VFwd
	case "resp":
		info.VNet = VResp
	default:
		return fmt.Errorf("unknown vnet %q", f[2])
	}
	if len(f) > 3 {
		if f[3] != "data" {
			return fmt.Errorf("unknown message flag %q", f[3])
		}
		info.CarriesData = true
	}
	p.Msgs[MsgType(f[1])] = info
	return nil
}

func parseSectionLine(f []string) (*Machine, error) {
	m := &Machine{}
	i := 1
	for i < len(f) {
		switch f[i] {
		case "init":
			if i+1 >= len(f) {
				return nil, fmt.Errorf("init needs a state")
			}
			m.Init = State(f[i+1])
			i += 2
		case "flat":
			// A projected flat machine (compiled fusion directory): no
			// actions, duplicate (state, event) rows allowed.
			m.Flat = true
			i++
		case "stable":
			for _, s := range f[i+1:] {
				m.Stable = append(m.Stable, State(s))
			}
			i = len(f)
		default:
			return nil, fmt.Errorf("unknown section attribute %q", f[i])
		}
	}
	return m, nil
}

func parseSyncLine(m *Machine, f []string) error {
	if len(f) < 2 {
		return fmt.Errorf("sync needs an operation")
	}
	var op CoreOp
	switch f[1] {
	case "Acquire":
		op = OpAcquire
	case "Release":
		op = OpRelease
	case "Fence":
		op = OpFence
	default:
		return fmt.Errorf("unknown sync op %q", f[1])
	}
	sb := SyncBehavior{}
	i := 2
	for i < len(f) {
		switch f[i] {
		case "invalidate", "writeback":
			kind := f[i]
			i++
			start := i
			for i < len(f) && f[i] != "invalidate" && f[i] != "writeback" && f[i] != "wait" {
				i++
			}
			states := make([]State, 0, i-start)
			for _, s := range f[start:i] {
				states = append(states, State(s))
			}
			if kind == "invalidate" {
				sb.Invalidate = states
			} else {
				sb.Writeback = states
			}
		case "wait":
			sb.WaitOutstanding = true
			i++
		default:
			return fmt.Errorf("unknown sync attribute %q", f[i])
		}
	}
	if m.Sync == nil {
		m.Sync = map[CoreOp]SyncBehavior{}
	}
	m.Sync[op] = sb
	return nil
}

// parseTransitionLine parses "<from> <event> -> <next> [: actions]".
func parseTransitionLine(m *Machine, line string) error {
	head := line
	var actions string
	if i := strings.IndexByte(line, ':'); i >= 0 {
		head, actions = line[:i], line[i+1:]
	}
	f := strings.Fields(head)
	arrow := -1
	for i, tok := range f {
		if tok == "->" {
			arrow = i
		}
	}
	if arrow < 2 || arrow+1 >= len(f) {
		return fmt.Errorf("malformed transition %q", strings.TrimSpace(line))
	}
	tr := Transition{From: State(f[0]), Next: State(f[arrow+1])}
	ev, err := parseEvent(f[1:arrow])
	if err != nil {
		return err
	}
	tr.On = ev
	for _, spec := range splitActions(actions) {
		a, err := parseAction(spec)
		if err != nil {
			return err
		}
		tr.Actions = append(tr.Actions, a)
	}
	m.Rows = append(m.Rows, tr)
	return nil
}

func parseEvent(f []string) (Event, error) {
	switch f[0] {
	case "Load":
		return OnCore(OpLoad), nil
	case "Store":
		return OnCore(OpStore), nil
	case "Evict":
		return OnCore(OpEvict), nil
	case "lastack":
		return OnLastAck(), nil
	case "msg":
		if len(f) < 2 {
			return Event{}, fmt.Errorf("msg event needs a type")
		}
		ev := OnMsg(MsgType(f[1]))
		if len(f) > 2 {
			switch f[2] {
			case "ack=0":
				ev.Cond = CondAckZero
			case "ack>0":
				ev.Cond = CondAckPos
			case "from-owner":
				ev.Cond = CondFromOwner
			case "not-owner":
				ev.Cond = CondNotOwner
			case "last":
				ev.Cond = CondLastSharer
			case "notlast":
				ev.Cond = CondNotLastSharer
			default:
				return Event{}, fmt.Errorf("unknown condition %q", f[2])
			}
		}
		return ev, nil
	}
	return Event{}, fmt.Errorf("unknown event %q", f[0])
}

func splitActions(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if strings.TrimSpace(part) != "" {
			out = append(out, strings.TrimSpace(part))
		}
	}
	return out
}

func parseAction(s string) (Action, error) {
	f := strings.Fields(s)
	switch f[0] {
	case "send", "sendack":
		if len(f) < 3 {
			return Action{}, fmt.Errorf("send needs a message and destination")
		}
		a := Action{Op: ActSend, Msg: MsgType(f[1]), AckFromSharers: f[0] == "sendack"}
		switch f[2] {
		case "dir":
			a.Dst = ToDir
		case "msgsrc":
			a.Dst = ToMsgSrc
		case "msgreq":
			a.Dst = ToMsgReq
		case "owner":
			a.Dst = ToOwner
		default:
			return Action{}, fmt.Errorf("unknown destination %q", f[2])
		}
		for _, tok := range f[3:] {
			switch tok {
			case "line":
				a.Payload = PayloadLine
			case "store":
				a.Payload = PayloadStore
			case "mem":
				a.Payload = PayloadMem
			case "msg":
				a.Payload = PayloadMsg
			case "none":
				a.Payload = PayloadNone
			case "ack":
				a.AckFromSharers = true
			case "fwdreq":
				a.ReqFromMsgSrc = true
			default:
				return Action{}, fmt.Errorf("unknown send flag %q", tok)
			}
		}
		return a, nil
	case "invsharers":
		if len(f) < 2 {
			return Action{}, fmt.Errorf("invsharers needs a message")
		}
		return InvSharers(MsgType(f[1])), nil
	case "addsharer":
		return AddSharer, nil
	case "removesharer":
		return RemoveSharer, nil
	case "clearsharers":
		return ClearSharers, nil
	case "ownertosharers":
		return OwnerToSharers, nil
	case "setowner":
		return SetOwner, nil
	case "clearowner":
		return ClearOwner, nil
	case "writemem":
		return WriteMem, nil
	case "storevalue":
		return StoreValue, nil
	case "loadmsg":
		return LoadMsgData, nil
	case "setacks":
		return SetAcks, nil
	case "coredone":
		return CoreDone, nil
	}
	return Action{}, fmt.Errorf("unknown action %q", f[0])
}

// ExportPCC serializes a protocol back to the PCC-like format (round-trips
// through ParsePCC).
func ExportPCC(p *Protocol) string {
	var b strings.Builder
	fmt.Fprintf(&b, "protocol %s", p.Name)
	if p.Model != "" {
		fmt.Fprintf(&b, " model %s", p.Model)
	}
	if p.AckType != "" {
		fmt.Fprintf(&b, " acktype %s", p.AckType)
	}
	switch p.Class {
	case ClassUpdate:
		b.WriteString(" class update")
	case ClassLease:
		b.WriteString(" class lease")
	}
	b.WriteString("\n\n")

	types := make([]MsgType, 0, len(p.Msgs))
	for t := range p.Msgs {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	for _, t := range types {
		info := p.Msgs[t]
		vnet := map[VNet]string{VReq: "req", VFwd: "fwd", VResp: "resp"}[info.VNet]
		fmt.Fprintf(&b, "message %s %s", t, vnet)
		if info.CarriesData {
			b.WriteString(" data")
		}
		b.WriteString("\n")
	}
	b.WriteString("\n")
	if p.Cache != nil {
		exportMachine(&b, "cache", p.Cache)
		b.WriteString("\n")
	}
	exportMachine(&b, "dir", p.Dir)
	return b.String()
}

func exportMachine(b *strings.Builder, kind string, m *Machine) {
	fmt.Fprintf(b, "%s init %s", kind, m.Init)
	if m.Flat {
		b.WriteString(" flat")
	}
	b.WriteString(" stable")
	for _, s := range m.Stable {
		fmt.Fprintf(b, " %s", s)
	}
	b.WriteString("\n")
	for _, tr := range m.Rows {
		fmt.Fprintf(b, "  %s %s -> %s", tr.From, exportEvent(tr.On), tr.Next)
		if len(tr.Actions) > 0 {
			b.WriteString(" :")
			for i, a := range tr.Actions {
				if i > 0 {
					b.WriteString(",")
				}
				b.WriteString(" " + exportAction(a))
			}
		}
		b.WriteString("\n")
	}
	ops := make([]CoreOp, 0, len(m.Sync))
	for op := range m.Sync {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	for _, op := range ops {
		sb := m.Sync[op]
		fmt.Fprintf(b, "  sync %s", op)
		if len(sb.Invalidate) > 0 {
			b.WriteString(" invalidate")
			for _, s := range sb.Invalidate {
				fmt.Fprintf(b, " %s", s)
			}
		}
		if len(sb.Writeback) > 0 {
			b.WriteString(" writeback")
			for _, s := range sb.Writeback {
				fmt.Fprintf(b, " %s", s)
			}
		}
		if sb.WaitOutstanding {
			b.WriteString(" wait")
		}
		b.WriteString("\n")
	}
	if len(m.InvalidateOnFill) > 0 {
		b.WriteString("  invalidateonfill")
		for _, s := range m.InvalidateOnFill {
			fmt.Fprintf(b, " %s", s)
		}
		b.WriteString("\n")
	}
}

func exportEvent(e Event) string {
	if e.IsCore() {
		return e.Core.String()
	}
	if e.Msg == EvLastAck {
		return "lastack"
	}
	s := "msg " + string(e.Msg)
	switch e.Cond {
	case CondAckZero:
		s += " ack=0"
	case CondAckPos:
		s += " ack>0"
	case CondFromOwner:
		s += " from-owner"
	case CondNotOwner:
		s += " not-owner"
	case CondLastSharer:
		s += " last"
	case CondNotLastSharer:
		s += " notlast"
	}
	return s
}

func exportAction(a Action) string {
	switch a.Op {
	case ActSend:
		dst := map[Dst]string{ToDir: "dir", ToMsgSrc: "msgsrc", ToMsgReq: "msgreq", ToOwner: "owner"}[a.Dst]
		s := fmt.Sprintf("send %s %s", a.Msg, dst)
		switch a.Payload {
		case PayloadLine:
			s += " line"
		case PayloadStore:
			s += " store"
		case PayloadMem:
			s += " mem"
		case PayloadMsg:
			s += " msg"
		}
		if a.AckFromSharers {
			s += " ack"
		}
		if a.ReqFromMsgSrc {
			s += " fwdreq"
		}
		return s
	case ActInvSharers:
		return "invsharers " + string(a.Msg)
	case ActAddSharer:
		return "addsharer"
	case ActRemoveSharer:
		return "removesharer"
	case ActClearSharers:
		return "clearsharers"
	case ActOwnerToSharers:
		return "ownertosharers"
	case ActSetOwner:
		return "setowner"
	case ActClearOwner:
		return "clearowner"
	case ActWriteMem:
		return "writemem"
	case ActStoreValue:
		return "storevalue"
	case ActLoadMsgData:
		return "loadmsg"
	case ActSetAcks:
		return "setacks"
	case ActCoreDone:
		return "coredone"
	}
	return "?"
}

// shareNames makes every occurrence of one state or message name in p
// share one string, as the literals of a protocol written in Go do.
// Freeze and the fusion analysis look names up in maps and compare them,
// and two equal strings with one backing array compare without reading
// their bytes.
func (p *Protocol) shareNames() {
	names := map[string]string{}
	name := func(s string) string {
		if t, ok := names[s]; ok {
			return t
		}
		names[s] = s
		return s
	}
	st := func(ss []State) {
		for i, s := range ss {
			ss[i] = State(name(string(s)))
		}
	}
	mt := func(t MsgType) MsgType { return MsgType(name(string(t))) }
	msgs := make(map[MsgType]MsgInfo, len(p.Msgs))
	for t, info := range p.Msgs {
		msgs[mt(t)] = info
	}
	p.Msgs, p.AckType = msgs, mt(p.AckType)
	for _, m := range []*Machine{p.Cache, p.Dir} {
		if m == nil {
			continue
		}
		m.Init = State(name(string(m.Init)))
		st(m.Stable)
		st(m.InvalidateOnFill)
		for _, sb := range m.Sync {
			st(sb.Invalidate)
			st(sb.Writeback)
		}
		for i := range m.Rows {
			r := &m.Rows[i]
			r.From, r.Next = State(name(string(r.From))), State(name(string(r.Next)))
			r.On.Msg = mt(r.On.Msg)
			for j := range r.Actions {
				r.Actions[j].Msg = mt(r.Actions[j].Msg)
			}
		}
	}
}
