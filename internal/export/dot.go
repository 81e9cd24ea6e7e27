// Package export renders protocol machines and synthesized merged
// directories in external formats: Graphviz DOT (the artifact depends on
// graphviz for its protocol diagrams) and the Murphi model-checker
// language (the artifact's output format, §IV).
package export

import (
	"fmt"
	"sort"
	"strings"

	"heterogen/internal/core"
	"heterogen/internal/spec"
)

// dotEscape quotes a label for DOT.
func dotEscape(s string) string {
	return strings.ReplaceAll(s, `"`, `\"`)
}

// DOTMachine renders a controller FSM as a Graphviz digraph: stable states
// as double circles, transient states as ellipses, one edge per transition
// labeled with its event and actions.
func DOTMachine(m *spec.Machine) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", m.Name)
	b.WriteString("  rankdir=LR;\n  node [fontsize=11];\n")
	for _, s := range m.States() {
		shape := "ellipse"
		if m.IsStable(s) {
			shape = "doublecircle"
		}
		style := ""
		if s == m.Init {
			style = `, style=bold`
		}
		fmt.Fprintf(&b, "  %q [shape=%s%s];\n", string(s), shape, style)
	}
	for _, t := range m.Rows {
		var acts []string
		for _, a := range t.Actions {
			acts = append(acts, a.String())
		}
		label := t.On.String()
		if len(acts) > 0 {
			label += "\\n" + strings.Join(acts, "\\n")
		}
		fmt.Fprintf(&b, "  %q -> %q [label=\"%s\"];\n", string(t.From), string(t.Next), dotEscape(label))
	}
	b.WriteString("}\n")
	return b.String()
}

// DOTProtocol renders both controllers of a protocol as one document with
// two digraphs.
func DOTProtocol(p *spec.Protocol) string {
	return DOTMachine(p.Cache) + "\n" + DOTMachine(p.Dir)
}

// DOTFlat renders a flattened merged-directory machine (Table II's
// machine, extracted by the fusion compiler) as a digraph.
// Composite states (e.g. "IxV·o1") become nodes; edges carry the
// triggering message types.
func DOTFlat(fsm *core.FlatFSM) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", fsm.Name+"-merged")
	b.WriteString("  rankdir=LR;\n  node [fontsize=10, shape=box];\n")
	states := append([]string(nil), fsm.States...)
	sort.Strings(states)
	for _, s := range states {
		fmt.Fprintf(&b, "  %q;\n", s)
	}
	// Merge parallel edges between the same pair into one multi-label edge.
	type pair struct{ from, to string }
	labels := map[pair][]string{}
	var order []pair
	for _, e := range fsm.Edges {
		k := pair{e.From, e.To}
		if _, ok := labels[k]; !ok {
			order = append(order, k)
		}
		labels[k] = append(labels[k], e.Event)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].from != order[j].from {
			return order[i].from < order[j].from
		}
		return order[i].to < order[j].to
	})
	for _, k := range order {
		evs := labels[k]
		sort.Strings(evs)
		evs = dedupe(evs)
		fmt.Fprintf(&b, "  %q -> %q [label=\"%s\"];\n", k.from, k.to, dotEscape(strings.Join(evs, ",")))
	}
	b.WriteString("}\n")
	return b.String()
}

func dedupe(in []string) []string {
	var out []string
	for i, s := range in {
		if i == 0 || s != in[i-1] {
			out = append(out, s)
		}
	}
	return out
}
