package spec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
)

// Vocab numbers the message types of one system: a protocol's own when it
// runs alone, a fusion's when it runs as one of the fused clusters. A
// vocabulary is built once, from the names the specification layer
// declares, and every message the runtime sends carries its MsgID. There
// is no process-wide table: two vocabularies built from the same names
// number them the same way, and one built from other names is unrelated.
//
// IDs follow the order in which the names' length-prefixed images
// (AppendString) sort: shorter names first, equal lengths bytewise.
// Message images carry the ID as a one-byte uvarint, so for vocabularies
// of up to 128 types an image sorts as the same image with the names
// written out would, and what image order decides (the compiled table's
// canonical state numbering, hence the artifact's bytes) does not depend
// on the numbering. Plain name order,
// which the compiled table's message order breaks ties by, is kept as a
// rank table (NameRank).
type Vocab struct {
	names []MsgType // by MsgID
	rank  []uint16  // by MsgID: the name's position in plain string order
}

// maxVocab bounds a vocabulary's size: NoMsg stays out of range.
const maxVocab = int(NoMsg)

// NewVocab numbers the distinct names. The empty name is dropped. More
// distinct names than a MsgID can number is an error.
func NewVocab(names []MsgType) (*Vocab, error) {
	var ns []MsgType
	seen := make(map[MsgType]bool, len(names))
	for _, n := range names {
		if n != "" && !seen[n] {
			seen[n] = true
			ns = append(ns, n)
		}
	}
	if len(ns) > maxVocab {
		return nil, fmt.Errorf("spec: %d message types exceed a vocabulary's %d", len(ns), maxVocab)
	}
	sort.Slice(ns, func(i, j int) bool { return imageLess(ns[i], ns[j]) })
	v := &Vocab{names: ns, rank: make([]uint16, len(ns))}
	byName := make([]int, len(ns))
	for i := range byName {
		byName[i] = i
	}
	sort.Slice(byName, func(i, j int) bool { return ns[byName[i]] < ns[byName[j]] })
	for r, id := range byName {
		v.rank[id] = uint16(r)
	}
	return v, nil
}

// imageLess orders names as their AppendString images sort: by the
// uvarint of the length, then bytewise.
func imageLess(a, b MsgType) bool {
	if len(a) < 0x80 && len(b) < 0x80 && len(a) != len(b) {
		return len(a) < len(b) // one-byte lengths
	}
	if len(a) != len(b) {
		var la, lb [binary.MaxVarintLen64]byte
		return bytes.Compare(AppendUvarint(la[:0], uint64(len(a))), AppendUvarint(lb[:0], uint64(len(b)))) < 0
	}
	return a < b
}

// Len returns the number of message types.
func (v *Vocab) Len() int { return len(v.names) }

// Name returns the name of id ("" outside the vocabulary).
func (v *Vocab) Name(id MsgID) MsgType {
	if int(id) < len(v.names) {
		return v.names[id]
	}
	return ""
}

// ID returns the number of name, or NoMsg if the vocabulary lacks it.
// It searches the names, so it serves set-up code, not delivery paths.
func (v *Vocab) ID(name MsgType) MsgID {
	i := sort.Search(len(v.names), func(i int) bool { return !imageLess(v.names[i], name) })
	if i < len(v.names) && v.names[i] == name {
		return MsgID(i)
	}
	return NoMsg
}

// NameRank returns id's position in plain name order.
func (v *Vocab) NameRank(id MsgID) int { return int(v.rank[id]) }

// Format renders m as Msg.String does, with its type named (a nil
// vocabulary leaves the number).
func (v *Vocab) Format(m Msg) string {
	if v == nil || int(m.Type) >= len(v.names) {
		return m.String()
	}
	return m.format(string(v.names[m.Type]))
}

// AppendMsg appends the named image of m: Msg.AppendBinary with the type
// written as its length-prefixed name. The compiled-table artifact stores
// messages this way, so its bytes do not depend on any numbering.
func (v *Vocab) AppendMsg(buf []byte, m *Msg) []byte {
	buf = AppendString(buf, string(v.Name(m.Type)))
	return m.appendFields(buf)
}

// DecodeMsg reads a named image written by AppendMsg. A name outside the
// vocabulary fails the cursor.
func (v *Vocab) DecodeMsg(d *Dec) Msg {
	var m Msg
	name := MsgType(d.String())
	if d.err != nil {
		return m
	}
	if m.Type = v.ID(name); m.Type == NoMsg {
		d.fail("unknown message type %q", name)
		return m
	}
	m.decodeFields(d)
	return m
}
