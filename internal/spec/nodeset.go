package spec

import (
	"fmt"
	"math/bits"
)

// nodeSetWords bounds NodeSet capacity: 4×64 = 256 node ids, comfortably
// above the largest configuration the simulator builds (64 cores + dirs +
// proxy pools) while keeping the set a small, copyable value.
const nodeSetWords = 4

// NodeSet is a fixed-capacity bitset over NodeIDs. It replaces the
// map[NodeID]bool sets the directory and merged directory used to keep —
// a value type that clones by assignment and iterates in ascending id
// order without sorting, which is what the model checker's per-successor
// deep copy and canonical state encoding need on their hot path.
type NodeSet [nodeSetWords]uint64

// MaxNodes is a NodeSet's capacity: the node ids of one system lie in
// [0, MaxNodes).
const MaxNodes = nodeSetWords * 64

// checkNode panics on ids outside the set's capacity (negative ids are
// caller bugs; large ids mean the configuration outgrew nodeSetWords).
func checkNode(id NodeID) {
	if id < 0 || int(id) >= MaxNodes {
		panic(fmt.Sprintf("spec: NodeID %d outside NodeSet capacity %d", id, MaxNodes))
	}
}

// Has reports whether id is in the set.
func (s *NodeSet) Has(id NodeID) bool {
	if id < 0 || int(id) >= MaxNodes {
		return false
	}
	return s[id>>6]&(1<<(uint(id)&63)) != 0
}

// Add inserts id.
func (s *NodeSet) Add(id NodeID) {
	checkNode(id)
	s[id>>6] |= 1 << (uint(id) & 63)
}

// Remove deletes id.
func (s *NodeSet) Remove(id NodeID) {
	if id < 0 || int(id) >= MaxNodes {
		return
	}
	s[id>>6] &^= 1 << (uint(id) & 63)
}

// Clear empties the set.
func (s *NodeSet) Clear() { *s = NodeSet{} }

// Len returns the member count.
func (s *NodeSet) Len() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no members.
func (s *NodeSet) Empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// Each calls fn for every member in ascending id order.
func (s *NodeSet) Each(fn func(NodeID)) {
	for wi, w := range s {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(NodeID(wi*64 + b))
			w &^= 1 << uint(b)
		}
	}
}

// Members returns the ids in ascending order (allocates; iteration-heavy
// callers should use Each).
func (s *NodeSet) Members() []NodeID {
	out := make([]NodeID, 0, s.Len())
	s.Each(func(id NodeID) { out = append(out, id) })
	return out
}

// Relabeled returns the set with every member id mapped through r.
func (s *NodeSet) Relabeled(r Relabel) NodeSet {
	if r == nil {
		return *s
	}
	var out NodeSet
	s.Each(func(id NodeID) { out.Add(r.Of(id)) })
	return out
}

// Relabel maps NodeIDs to NodeIDs for symmetry-reduced state encoding: the
// model checker canonicalizes a state by encoding it under every
// permutation of interchangeable caches and keeping the lexicographically
// least form. A nil Relabel is the identity; ids outside the slice (and
// NoNode) map to themselves.
type Relabel []NodeID

// Of returns the relabeled id.
func (r Relabel) Of(id NodeID) NodeID {
	if r == nil || id < 0 || int(id) >= len(r) {
		return id
	}
	return r[id]
}

// RelabelAppender is implemented by components that can append their
// binary state encoding with every NodeID reference mapped through r —
// the hook symmetry reduction needs to encode a state as it would look
// with interchangeable caches permuted. AppendBinaryRelabeled(buf, nil)
// must distinguish exactly the states AppendBinary does, in the layout
// every other permutation uses, since canonical keys compare encodings
// across permutations. It need not be AppendBinary's bytes:
// core.CompiledDir writes its interpreted image here and its state
// register there.
type RelabelAppender interface {
	AppendBinaryRelabeled(buf []byte, r Relabel) []byte
}
