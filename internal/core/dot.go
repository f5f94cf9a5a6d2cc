package core

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/ac"
)

// DotOptions controls WriteDot rendering.
type DotOptions struct {
	// ShowDefaults draws the default transitions resolvable at each state
	// (dashed edges), reconstructing the paper's Figure 2 panels. Without
	// it only the stored pointers are drawn (plus the trie skeleton).
	ShowDefaults bool
	// MaxStates aborts rendering for machines too large to visualize
	// (0 = 200).
	MaxStates int
}

// WriteDot renders the machine as a Graphviz digraph in the style of the
// paper's Figures 1 and 2: one circle per state labeled with the character
// reaching it (double circle for match states), solid edges for stored
// transition pointers, dotted edges for the trie skeleton where no stored
// pointer survived, and optionally dashed edges for the lookup-table
// defaults. Labels and skeleton come from t, the machine's ruleset's trie.
func (m *Machine) WriteDot(w io.Writer, t *ac.Trie, opts DotOptions) error {
	max := opts.MaxStates
	if max == 0 {
		max = 200
	}
	n := t.NumStates()
	if n > max {
		return fmt.Errorf("core: machine has %d states; raise DotOptions.MaxStates (%d) to render anyway", n, max)
	}
	var sb strings.Builder
	sb.WriteString("digraph machine {\n")
	sb.WriteString("  rankdir=LR;\n  node [shape=circle, fontname=\"Helvetica\"];\n")
	for s := int32(0); s < int32(n); s++ {
		nd := t.Nodes[s]
		label := "start"
		if s != ac.Root {
			label = printableChar(nd.Char)
		}
		shape := ""
		if t.HasOutput(s) {
			shape = ", shape=doublecircle"
		}
		fmt.Fprintf(&sb, "  s%d [label=\"%s\\n#%d\"%s];\n", s, label, s, shape)
	}
	// Trie skeleton (dotted when the goto edge was compressed away).
	for s := int32(0); s < int32(n); s++ {
		for _, e := range t.Edges(s) {
			if m.StoredAt(s, e.Char) == e.To {
				continue // drawn below as a stored pointer
			}
			fmt.Fprintf(&sb, "  s%d -> s%d [style=dotted, label=\"%s\"];\n",
				s, e.To, printableChar(e.Char))
		}
	}
	// Stored pointers.
	for s := int32(0); s < int32(n); s++ {
		for _, p := range m.StoredRow(s) {
			fmt.Fprintf(&sb, "  s%d -> s%d [label=\"%s\"];\n",
				s, p.To(), printableChar(p.Char()))
		}
	}
	if opts.ShowDefaults {
		fmt.Fprintf(&sb, "  lut [shape=box, label=\"lookup\\ntable\"];\n")
		for c := 0; c < 256; c++ {
			ch := byte(c)
			if d1 := m.Defaults.D1[c]; d1 != ac.None {
				fmt.Fprintf(&sb, "  lut -> s%d [style=dashed, label=\"d1 %s\"];\n", d1, printableChar(ch))
			}
			for _, e := range m.Defaults.D2[c] {
				fmt.Fprintf(&sb, "  lut -> s%d [style=dashed, label=\"d2 %s%s\"];\n",
					e.State, printableChar(e.Prev), printableChar(ch))
			}
			for _, e := range m.Defaults.D3[c] {
				fmt.Fprintf(&sb, "  lut -> s%d [style=dashed, label=\"d3 %s%s%s\"];\n",
					e.State, printableChar(e.Prev2), printableChar(e.Prev1), printableChar(ch))
			}
		}
	}
	sb.WriteString("}\n")
	_, err := io.WriteString(w, sb.String())
	return err
}

func printableChar(c byte) string {
	if c >= 0x21 && c <= 0x7E && c != '"' && c != '\\' {
		return string(c)
	}
	return fmt.Sprintf("x%02X", c)
}
