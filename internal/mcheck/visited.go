package mcheck

import (
	"encoding/binary"
	"math/bits"
)

// fnvOffset and fnvPrime are the FNV-1a 64-bit parameters.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnv64a hashes b with FNV-1a, inlined to avoid the hash.Hash64 allocation
// per state that hash/fnv would cost on the exploration hot path. It is
// the first of bitstate mode's double hashes (see storage.go); the other
// modes use stateHash below.
func fnv64a(b []byte) uint64 {
	h := uint64(fnvOffset)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// stateHash is the 64-bit hash of a state encoding: a word-at-a-time
// multiply-rotate mix (xxhash-style constants) that runs ~8x faster than
// byte-at-a-time FNV on the few-hundred-byte encodings a search hashes
// per transition, closed by xxhash64's full-avalanche finalizer so every
// input bit reaches every output bit. It is deterministic, with no
// per-process seed, so a search stores the same values run to run. It is
// the stored fingerprint under hash compaction, where its quality is the
// omission bound, and the exact set's stripe-and-probe hash, where
// exactness never depends on it (Insert compares full encodings).
func stateHash(b []byte) uint64 {
	const (
		m1 = 0x9e3779b185ebca87
		m2 = 0xc2b2ae3d27d4eb4f
		m3 = 0x165667b19e3779f9
	)
	h := uint64(len(b))*m1 + fnvOffset
	for len(b) >= 8 {
		k := binary.LittleEndian.Uint64(b)
		h = bits.RotateLeft64(h^(k*m2), 31) * m1
		b = b[8:]
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * m2
	}
	h ^= h >> 33
	h *= m2
	h ^= h >> 29
	h *= m3
	h ^= h >> 32
	return h
}
