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
