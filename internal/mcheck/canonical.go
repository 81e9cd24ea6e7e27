package mcheck

import (
	"bytes"

	"heterogen/internal/spec"
)

// Symmetry reduction (canonical.go) — the scalarset-style state-space
// reduction CMurphi applies to the paper's §VII-C searches. Caches within
// the same cluster whose cores run identical programs are interchangeable:
// permuting them maps reachable states to reachable states and preserves
// deadlocks, invariant verdicts and (up to relabeling) outcomes. The
// checker therefore keys its visited set by a canonical representative:
// the lexicographically least binary encoding of the state over every
// permutation of each interchangeable group. A search that would visit all
// k! arrangements of k symmetric caches visits one.
//
// Soundness rests on the transition relation being symmetric, which
// auto-detection establishes structurally before enabling any reduction:
//
//   - group members run the same *Protocol and send to the same directory
//     (same cluster), so their controller tables are identical;
//   - each member is driven by exactly one core (or none), the driving
//     cores start in identical states and run element-wise equal programs,
//     so issue behavior is identical;
//   - every component supports relabeled binary encoding
//     (spec.RelabelAppender), so a permuted state can be encoded without
//     materializing it;
//   - the group is only worth keeping if it has ≥2 members, and the total
//     permutation count is capped (maxSymPerms) so pathological configs
//     fall back to the exact search rather than an expensive canonicalize.
//
// Anything user-supplied that can observe cache identity must be symmetric
// too: Options.Invariants must not distinguish interchangeable caches
// (SWMR and friends are fine — they quantify over all caches), and
// outcome sets are repaired by orbit expansion (see searchCtx.expand):
// at each quiescent state the outcome is added under every permutation,
// so the reported outcome set equals the unreduced search's. Deadlock
// counts are likewise reported as orbit sizes, keeping the count equal to
// the unreduced search's.

// maxSymPerms caps the total permutation count auto-detection will accept.
// Canonicalization costs one encoding pass per permutation per successor;
// beyond a few thousand the canonicalize outweighs the state reduction.
const maxSymPerms = 5040 // 7!

// symPerm is one element of the symmetry group, precomputed as encode
// orders: position i of the canonical encoding takes component comp[i]
// (core core[i]), with every NodeID reference mapped through ids.
type symPerm struct {
	comp []int
	core []int
	ids  spec.Relabel
}

// canonicalizer holds the symmetry group of a configuration. It is
// immutable after construction; workers share it and keep per-worker
// canonScratch buffers.
type canonicalizer struct {
	perms []symPerm // perms[0] is the identity
}

// canonScratch is the per-worker buffer set for canonical encoding.
type canonScratch struct {
	best     []byte
	try      []byte
	bestEnds []int // best's segment ends
	tryEnds  []int
	order    []int
}

// symGroup is one class of interchangeable cache component indices.
type symGroup struct {
	comps []int // component indices of the caches, in position order
	cores []int // driving core indices, parallel to comps (nil if none)
}

// detectSymmetry computes the configuration's symmetry group, or nil when
// no sound nontrivial group exists. Reduction is declined when:
// a component lacks relabeled encoding, a cache is driven by more than one
// core, group members differ in program or initial core state, or the
// permutation count exceeds maxSymPerms.
func detectSymmetry(s *System) *canonicalizer {
	for _, c := range s.Components {
		if _, ok := c.(spec.RelabelAppender); !ok {
			return nil
		}
	}
	// Map each cache id to its driving core; more than one driver breaks
	// the cache↔core bijection a swap needs.
	coreOf := map[spec.NodeID]int{}
	for i, core := range s.Cores {
		if _, dup := coreOf[core.Cache]; dup {
			return nil
		}
		coreOf[core.Cache] = i
	}
	// Partition cache components into candidate classes by (protocol,
	// directory), then split by driving-core equivalence.
	type classKey struct {
		proto *spec.Protocol
		dir   spec.NodeID
	}
	classes := map[classKey][]int{}
	var order []classKey
	for i, c := range s.Components {
		cache, ok := c.(*spec.CacheInst)
		if !ok {
			continue
		}
		k := classKey{cache.Protocol(), cache.DirID()}
		if _, seen := classes[k]; !seen {
			order = append(order, k)
		}
		classes[k] = append(classes[k], i)
	}
	var groups []symGroup
	total := 1
	for _, k := range order {
		members := classes[k]
		// Split the class into runs of members that are pairwise
		// interchangeable with the first unclaimed member.
		used := make([]bool, len(members))
		for i := range members {
			if used[i] {
				continue
			}
			g := symGroup{comps: []int{members[i]}}
			ci, hasCore := coreOf[cacheAt(s, members[i]).ID()]
			if hasCore {
				g.cores = []int{ci}
			}
			for j := i + 1; j < len(members); j++ {
				if used[j] {
					continue
				}
				cj, hasCoreJ := coreOf[cacheAt(s, members[j]).ID()]
				if hasCore != hasCoreJ {
					continue
				}
				if hasCore && !coresInterchangeable(s.Cores[ci], s.Cores[cj]) {
					continue
				}
				used[j] = true
				g.comps = append(g.comps, members[j])
				if hasCore {
					g.cores = append(g.cores, cj)
				}
			}
			used[i] = true
			if len(g.comps) >= 2 {
				groups = append(groups, g)
				for f := 2; f <= len(g.comps); f++ {
					total *= f
					if total > maxSymPerms {
						return nil
					}
				}
			}
		}
	}
	if len(groups) == 0 {
		return nil
	}
	return buildPerms(s, groups, total)
}

// cacheAt returns component i as a cache (callers ensure it is one).
func cacheAt(s *System, i int) *spec.CacheInst { return s.Components[i].(*spec.CacheInst) }

// coresInterchangeable reports whether two cores start identically and run
// element-wise equal programs.
func coresInterchangeable(a, b *Core) bool {
	if a.PC != b.PC || a.Issued != b.Issued || len(a.Loads) != len(b.Loads) || len(a.Prog) != len(b.Prog) {
		return false
	}
	for i := range a.Loads {
		if a.Loads[i] != b.Loads[i] {
			return false
		}
	}
	for i := range a.Prog {
		if a.Prog[i] != b.Prog[i] {
			return false
		}
	}
	return true
}

// buildPerms materializes the full group: the cross product of all
// permutations of each symmetric class.
func buildPerms(s *System, groups []symGroup, total int) *canonicalizer {
	maxID := spec.NodeID(0)
	for _, c := range s.Components {
		for _, id := range c.OwnedIDs() {
			if id > maxID {
				maxID = id
			}
		}
	}
	idComp := make([]int, len(s.Components))
	for i := range idComp {
		idComp[i] = i
	}
	idCore := make([]int, len(s.Cores))
	for i := range idCore {
		idCore[i] = i
	}

	c := &canonicalizer{perms: make([]symPerm, 0, total)}
	// assignment[g] holds the current permutation of group g as indices
	// into its member lists.
	assignment := make([][]int, len(groups))
	var rec func(g int)
	rec = func(g int) {
		if g == len(groups) {
			p := symPerm{
				comp: append([]int(nil), idComp...),
				core: append([]int(nil), idCore...),
			}
			ids := make(spec.Relabel, maxID+1)
			for i := range ids {
				ids[i] = spec.NodeID(i)
			}
			identity := true
			for gi, grp := range groups {
				perm := assignment[gi]
				for pos, src := range perm {
					if pos != src {
						identity = false
					}
					// Encode position comps[pos] takes the cache at
					// comps[src]; that cache's id is renamed to the id the
					// position expects.
					p.comp[grp.comps[pos]] = grp.comps[src]
					if grp.cores != nil {
						p.core[grp.cores[pos]] = grp.cores[src]
					}
					ids[cacheAt(s, grp.comps[src]).ID()] = cacheAt(s, grp.comps[pos]).ID()
				}
			}
			if identity {
				p.ids = nil // fast path: Relabel(nil) is the identity
			} else {
				p.ids = ids
			}
			// Permutations generate in lexicographic order, so the identity
			// is emitted first: perms[0] always encodes the state as-is.
			c.perms = append(c.perms, p)
			return
		}
		n := len(groups[g].comps)
		perm := make([]int, n)
		var permute func(i int, avail []int)
		permute = func(i int, avail []int) {
			if i == n {
				assignment[g] = perm
				rec(g + 1)
				return
			}
			for j, v := range avail {
				perm[i] = v
				rest := append(append([]int(nil), avail[:j]...), avail[j+1:]...)
				permute(i+1, rest)
			}
		}
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		permute(0, all)
	}
	rec(0)
	return c
}

// Perms returns the symmetry group order (1 = no reduction).
func (c *canonicalizer) Perms() int {
	if c == nil {
		return 1
	}
	return len(c.perms)
}

// encodePerm appends the state's binary encoding under permutation p,
// recording its segment ends (System.encodeImage's layout) when ends is
// non-nil. For the identity it produces System.EncodeBinary's bytes,
// except that a core.CompiledDir writes its interpreted image where
// EncodeBinary writes its state register: a symmetric key is compared
// across permutations, so every permutation must encode the same way.
func (c *canonicalizer) encodePerm(s *System, p *symPerm, sc *canonScratch, buf []byte, ends *[]int) []byte {
	base := len(buf)
	mark := func() {
		if ends != nil {
			*ends = append(*ends, len(buf)-base)
		}
	}
	if ends != nil {
		*ends = (*ends)[:0]
	}
	for _, ci := range p.comp {
		buf = s.Components[ci].(spec.RelabelAppender).AppendBinaryRelabeled(buf, p.ids)
		mark()
	}
	buf = s.Mem.AppendBinary(buf)
	mark()
	// Relabeling renames channel endpoints, which reorders the (src, dst,
	// vnet)-sorted channel section: re-sort indices under the mapped keys.
	sc.order = sc.order[:0]
	rk := func(i int) chanKey {
		k := s.chans[i].k
		return chanKey{p.ids.Of(k.src), p.ids.Of(k.dst), k.vnet}
	}
	for i := range s.chans {
		sc.order = append(sc.order, i)
		for j := len(sc.order) - 1; j > 0 && rk(sc.order[j]).less(rk(sc.order[j-1])); j-- {
			sc.order[j], sc.order[j-1] = sc.order[j-1], sc.order[j]
		}
	}
	buf = spec.AppendUvarint(buf, uint64(len(s.chans)))
	for _, ci := range sc.order {
		k := rk(ci)
		buf = spec.AppendInt(buf, int(k.src))
		buf = spec.AppendInt(buf, int(k.dst))
		buf = spec.AppendInt(buf, int(k.vnet))
		buf = spec.AppendUvarint(buf, uint64(len(s.chans[ci].msgs)))
		for j := range s.chans[ci].msgs {
			buf = s.chans[ci].msgs[j].AppendBinaryRelabeled(buf, p.ids)
		}
	}
	mark()
	for _, ti := range p.core {
		core := s.Cores[ti]
		buf = spec.AppendInt(buf, core.PC)
		buf = spec.AppendBool(buf, core.Issued)
		buf = spec.AppendUvarint(buf, uint64(len(core.Loads)))
		for _, v := range core.Loads {
			buf = spec.AppendInt(buf, v)
		}
	}
	mark()
	return buf
}

// canonical appends the canonical representative encoding, the
// lexicographically least encodePerm over the group, to buf and returns
// it with its segment ends (relative to the encoding's start; valid until
// sc's next use).
func (c *canonicalizer) canonical(s *System, sc *canonScratch, buf []byte) ([]byte, []int) {
	c.canonicalPerm(s, sc)
	return append(buf, sc.best...), sc.bestEnds
}

// canonicalPerm returns the first permutation whose encoding of s is the
// least, leaving that encoding in sc.best and its ends in sc.bestEnds.
func (c *canonicalizer) canonicalPerm(s *System, sc *canonScratch) *symPerm {
	sc.best = c.encodePerm(s, &c.perms[0], sc, sc.best[:0], &sc.bestEnds)
	best := &c.perms[0]
	for i := 1; i < len(c.perms); i++ {
		sc.try = c.encodePerm(s, &c.perms[i], sc, sc.try[:0], &sc.tryEnds)
		if bytes.Compare(sc.try, sc.best) < 0 {
			sc.best, sc.try = sc.try, sc.best
			sc.bestEnds, sc.tryEnds = sc.tryEnds, sc.bestEnds
			best = &c.perms[i]
		}
	}
	return best
}

// orbitSize counts the distinct states in s's orbit under the group — the
// number of states the unreduced search would count where the reduced
// search visits one representative. Only evaluated on deadlock states, so
// the per-call allocations are off the hot path.
func (c *canonicalizer) orbitSize(s *System, sc *canonScratch) int {
	seen := make(map[string]bool, len(c.perms))
	for i := range c.perms {
		sc.try = c.encodePerm(s, &c.perms[i], sc, sc.try[:0], nil)
		seen[string(sc.try)] = true
	}
	return len(seen)
}
