package mcheck

import "heterogen/internal/spec"

// Ample-set partial order reduction (Options.POR). Per expanded state the
// selector looks for one cache X that is *isolated* — nothing else in the
// state references X, so every other agent's moves are independent of X's —
// and, when it finds one, expands only X's moves (its incoming message
// deliveries, its cores' issues, its evictions) instead of the full enabled
// set. Isolation makes that subset a persistent set in Godefroid's sense:
//
//   - X's moves read and write only X, X's cores, and channel tails (sends
//     append; FIFO heads other agents consume are untouched), so they
//     commute with every non-X move;
//   - along any path of non-X moves, no new interaction with X can arise:
//     creating a message to X requires either a component whose dynamic
//     state references X (excluded by the RefNodes probe) or an in-flight
//     message carrying X as Src/Req outside X's own incoming channels
//     (excluded by the channel scan) — and the spec action vocabulary's
//     locality (spec.SendLocality, checked at Freeze time) guarantees those
//     are the only two sources of node references, so the exclusion is
//     inductive.
//
// Persistent-set search preserves every state with no progressing moves —
// exactly the terminal states the checker classifies (deadlocks and
// quiescent litmus outcomes) — so verdicts, deadlock counts and outcome
// sets match the full search. Properties of intermediate states are NOT
// preserved, which is why the search auto-disables the reduction when
// Options.Invariants or an OnDeliver observer is present, and why litmus
// observer reads are never pruned: outcomes are functions of terminal
// states only.
//
// No cycle proviso is required. The classical ignoring problem — a cycle
// of reduced states deferring some agent's move forever — can hide
// violations of intermediate-state properties, but it cannot hide a
// terminal state: X's enabled moves stay enabled and unchanged along any
// non-X path (nothing else may touch X's state or its incoming channels
// while X is isolated), so a path that never schedules X never reaches a
// state with no moves, and commuting the path's first X move to the front
// shows some ample move starts an equally long path to the same terminal
// state. Induction over path length then gives: every terminal state
// reachable in the full graph is reachable in the reduced graph. The
// ample choice is a pure function of the state (candidate order is fixed,
// isolation reads only state content), so the reduced graph is a fixed
// subgraph of the full one and even the parallel reduced search is schedule-independent.
// See docs/MCHECK.md for the full argument.

// PORMode selects the partial order reduction behavior.
type PORMode int

const (
	// PORAuto (the zero value) reduces whenever it is sound to do so:
	// no Invariants, no OnDeliver observer, and every component passing
	// the locality analysis. It silently falls back to the full search
	// otherwise.
	PORAuto PORMode = iota
	// POROff disables the reduction unconditionally (the -por=0 escape
	// hatch; also what the storage/parallel count-agreement
	// tests pin, so their baselines keep covering the full unreduced
	// space).
	POROff
)

// porComponent is what a component must implement for the search to reduce
// over it: the dynamic node-reference probe plus the static table locality
// verdict.
type porComponent interface {
	spec.NodeReferrer
	PORLocal() bool
}

// porCandidates returns the ample-set candidates of a configuration, the
// node ids of its top-level caches, or nil when any component is
// ineligible (unknown component kind, or a protocol failing the locality
// analysis) and the search must stay unreduced.
func porCandidates(s *System) []spec.NodeID {
	var cands []spec.NodeID
	for _, c := range s.Components {
		pc, ok := c.(porComponent)
		if !ok || !pc.PORLocal() {
			return nil
		}
		if cache, ok := c.(*spec.CacheInst); ok {
			cands = append(cands, cache.ID())
		}
	}
	return cands
}

// selectAmple picks an ample move subset for the expanded state w.cur:
// the moves of the first isolated candidate that has some moves but not
// all of them. On success w.moves is stably partitioned with the ample
// block first and its length returned; 0 means no reduction applies and
// w.moves is left in its deterministic full order.
func (w *worker) selectAmple() int {
	var refs spec.NodeSet
	for p, n := range w.cur.comps {
		if w.num.reg[p] {
			c := w.regs[p]
			c.(Registered).SetRegister(n)
			refs = refs.Or(c.(spec.NodeReferrer).RefNodes())
		} else {
			refs = refs.Or(w.num.pos[p].at(n).refs)
		}
	}
	for _, id := range w.ctx.porCands {
		if refs.Has(id) || !w.chanIsolated(id) {
			continue
		}
		if k := w.partitionAmple(id); k > 0 && k < len(w.moves) {
			return k
		}
	}
	return 0
}

// chanIsolated reports whether no in-flight message outside x's own
// incoming channels references x as sender or original requestor. (Req's
// zero value aliases cache 0, so handshake messages that never set Req cost
// cache 0 an occasional false negative — conservative, never unsound.)
// Each FIFO number keeps the nodes its messages name, so this reads one
// set per channel.
func (w *worker) chanIsolated(x spec.NodeID) bool {
	for _, cf := range w.cur.chans {
		if w.num.chanDst(cf.ch) != x && w.num.fifo(cf.fifo).nodes.Has(x) {
			return false
		}
	}
	return true
}

// partitionAmple stably partitions w.moves so x's moves come first,
// returning their count. A count of 0 or len(w.moves) leaves the slice
// untouched (no useful reduction either way).
func (w *worker) partitionAmple(x spec.NodeID) int {
	w.amp, w.rest = w.amp[:0], w.rest[:0]
	for _, m := range w.moves {
		if m.node == x {
			w.amp = append(w.amp, m)
		} else {
			w.rest = append(w.rest, m)
		}
	}
	k := len(w.amp)
	if k == 0 || k == len(w.moves) {
		return k
	}
	w.moves = append(append(w.moves[:0], w.amp...), w.rest...)
	return k
}
