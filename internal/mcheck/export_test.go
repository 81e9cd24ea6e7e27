package mcheck

import "heterogen/internal/memmodel"

// Seams for the external test package (mcheck_test), whose tests build
// fused systems through core, which imports this package.

// SetSpillRing caps a spilling search's in-memory frontier window at n
// entries, so small state spaces still write wave files.
func SetSpillRing(o *Options, n int) { o.spillRing = n }

// DecodeImage rebuilds an EncodeBinary image in place over a clone of the
// system it was encoded from.
func DecodeImage(s *System, enc []byte) error { return decodeImage(s, enc, nil) }

// Expander runs the search's own expansion step (decodeImage, then expand)
// one state at a time, so a test can drive a search of its own over it
// and check every successor image it produces.
type Expander struct {
	ctx *searchCtx
	cur *System
	sc  expandScratch
	res Result
}

// NewExpander prepares expansions of initial's states under opts.
func NewExpander(initial *System, opts Options) *Expander {
	freezeComponents(initial)
	return &Expander{
		ctx: newSearchCtx(initial, opts, DefaultMaxStates),
		cur: initial.Clone(),
		res: Result{Outcomes: memmodel.OutcomeSet{}},
	}
}

// Expand expands the state whose image is pre exactly as a search worker
// does, with insert as the visited set and enqueue as the frontier. It
// then runs the restore the next move would have run and returns the
// system's image afterwards, which must be pre again. Its second result
// counts the successors the expansion applied.
func (e *Expander) Expand(pre []byte, insert func([]byte) bool, enqueue func([]byte)) ([]byte, int, error) {
	if err := decodeImage(e.cur, pre, &e.sc.segs); err != nil {
		return nil, 0, err
	}
	before := e.res.Transitions
	e.ctx.expand(e.cur, pre, &e.res, &e.sc, insert, enqueue)
	applied := e.res.Transitions - before
	if applied > 0 {
		if err := e.cur.restore(pre, e.sc.segs, &e.sc.saved); err != nil {
			return nil, applied, err
		}
	}
	return e.cur.EncodeBinary(nil), applied, nil
}
