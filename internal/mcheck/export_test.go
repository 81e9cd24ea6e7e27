package mcheck

import (
	"context"

	"heterogen/internal/spec"
)

// Seams for the external test package (mcheck_test), whose tests build
// fused systems through core, which imports this package.

// RoundTripper builds one search's tables for template, its seed
// entered, and returns a round trip through them: it numbers a system
// reached from template (or a clone of it) and materializes the vector
// into a fresh clone of template.
func RoundTripper(template *System) func(s *System) *System {
	num := newNumbering(template, 1, nil, nil)
	return func(s *System) *System {
		out := template.Clone()
		num.materialize(out, num.number(s))
		return out
	}
}

// ExploreProbed is Explore with probe called on every move the search
// tries, materialized with its parent and its successor (nil when the
// move stalls), whether or not the visited set admits the successor.
// Under more than one worker probe runs concurrently.
func ExploreProbed(initial *System, opts Options, probe func(parent *System, m Move, succ *System)) *Result {
	return exploreProbed(context.Background(), initial, opts, probe)
}

// insert adds key to a lone stripe under the forced hash tag tag, as an
// exact set under the default budget would; ok is false once that set is
// Full.
func (s *stripe) insert(key []byte, tag uint32) (isNew, ok bool) {
	v := newVisited(Options{}, 1)
	isNew = v.insert(s, key, uint64(tag)<<32)
	return isNew, !v.Full()
}

// InFlight returns every message in s's channels, channel by channel.
func InFlight(s *System) []spec.Msg {
	var out []spec.Msg
	for i := range s.chans {
		out = append(out, s.chans[i].msgs...)
	}
	return out
}

// MoveDst returns the destination of a delivery's channel.
func MoveDst(m Move) spec.NodeID { return m.Chan.dst }
