package core

import (
	"fmt"
	"sort"
	"strings"
)

// FlatFSM is a flattened merged-directory machine: the composite local
// states (MergedDir.LocalState vocabulary) and the (state, event, state')
// transitions between them, projected from the fusion compiler's
// exhaustive extraction (CompiledFusion.FlatFSM). It is the single
// rendering path behind the Table II text export and the Graphviz
// emission (export.DOTFlat).
type FlatFSM struct {
	Name   string
	States []string
	Edges  []Edge
}

// Edge is one merged-directory FSM transition.
type Edge struct {
	From, Event, To string
}

// Counts returns (#states, #transitions).
func (f *FlatFSM) Counts() (int, int) { return len(f.States), len(f.Edges) }

// Format renders the FSM as text, one transition per line, sorted — the
// moral equivalent of the Murphi output the artifact emits. Rendering is
// order-independent: states and rendered transition lines are sorted here,
// so any producer ordering yields identical bytes.
func (f *FlatFSM) Format() string {
	var b strings.Builder
	states := append([]string(nil), f.States...)
	sort.Strings(states)
	trans := make([]string, 0, len(f.Edges))
	for _, e := range f.Edges {
		trans = append(trans, fmt.Sprintf("%s --%s--> %s", e.From, e.Event, e.To))
	}
	sort.Strings(trans)
	fmt.Fprintf(&b, "-- HeteroGen merged directory %s: %d states, %d transitions\n", f.Name, len(states), len(trans))
	fmt.Fprintf(&b, "-- states:\n")
	for _, s := range states {
		fmt.Fprintf(&b, "--   %s\n", s)
	}
	fmt.Fprintf(&b, "-- transitions:\n")
	for _, t := range trans {
		fmt.Fprintf(&b, "%s\n", t)
	}
	return b.String()
}
