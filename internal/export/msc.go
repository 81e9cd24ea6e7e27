package export

import (
	"fmt"
	"strings"

	"heterogen/internal/spec"
)

// SequenceChart renders a message trace as an ASCII message-sequence chart
// (one column per participant, one row per delivered message) — the
// Figure 7/8 protocol-flow diagrams as text. names maps node ids to column
// labels; unnamed ids get "n<id>". Participants appear in the order their
// ids sort.
func SequenceChart(msgs []spec.Msg, names map[spec.NodeID]string, v *spec.Vocab) string {
	// Collect participants.
	seen := map[spec.NodeID]bool{}
	var ids []spec.NodeID
	add := func(id spec.NodeID) {
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	for _, m := range msgs {
		add(m.Src)
		add(m.Dst)
	}
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if ids[j] < ids[i] {
				ids[i], ids[j] = ids[j], ids[i]
			}
		}
	}
	col := map[spec.NodeID]int{}
	labels := make([]string, len(ids))
	width := 0
	for i, id := range ids {
		col[id] = i
		l := names[id]
		if l == "" {
			l = fmt.Sprintf("n%d", id)
		}
		labels[i] = l
		if len(l) > width {
			width = len(l)
		}
	}
	if width < 8 {
		width = 8
	}
	colw := width + 4

	var b strings.Builder
	for i, l := range labels {
		pad := colw
		if i == len(labels)-1 {
			pad = len(l)
		}
		fmt.Fprintf(&b, "%-*s", pad, l)
	}
	b.WriteByte('\n')

	line := func() []byte {
		row := make([]byte, colw*(len(ids)-1)+1)
		for i := range row {
			row[i] = ' '
		}
		for i := range ids {
			row[i*colw] = '|'
		}
		return row
	}

	for _, m := range msgs {
		row := line()
		a, c := col[m.Src], col[m.Dst]
		lo, hi := a, c
		dir := byte('>')
		if lo > hi {
			lo, hi = hi, lo
			dir = '<'
		}
		for x := lo*colw + 1; x < hi*colw; x++ {
			row[x] = '-'
		}
		if dir == '>' {
			row[hi*colw-1] = '>'
		} else {
			row[lo*colw+1] = '<'
		}
		label := fmt.Sprintf("%s a%d", v.Name(m.Type), m.Addr)
		if m.HasData {
			label += fmt.Sprintf("=%d", m.Data)
		}
		if m.Ack != 0 {
			label += fmt.Sprintf(" ack=%d", m.Ack)
		}
		// Center the label on the arrow when it fits.
		mid := (lo*colw + hi*colw) / 2
		start := mid - len(label)/2
		if start < lo*colw+2 {
			start = lo*colw + 2
		}
		for i := 0; i < len(label) && start+i < hi*colw-1; i++ {
			row[start+i] = label[i]
		}
		b.Write(row)
		b.WriteByte('\n')
	}
	return b.String()
}
