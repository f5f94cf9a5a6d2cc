package ac

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/ruleset"
)

// insertionLayout is Layout's oracle: the trie built the plain way, one
// pattern at a time into a node per prefix with a map of children, then
// numbered breadth-first with each state's children in character order.
// It returns what Layout must return, node for node and output for output,
// with the fail and output links Layout leaves for Link.
func insertionLayout(set *ruleset.Set) ([]Node, []int32) {
	type onode struct {
		kids  map[byte]int
		out   int32
		depth int32
		char  byte
	}
	tree := []onode{{kids: map[byte]int{}, out: None}}
	for _, p := range set.Patterns {
		cur := 0
		for i, c := range p.Data {
			next, ok := tree[cur].kids[c]
			if !ok {
				next = len(tree)
				tree = append(tree, onode{kids: map[byte]int{}, out: None, depth: int32(i + 1), char: c})
				tree[cur].kids[c] = next
			}
			cur = next
		}
		tree[cur].out = int32(p.ID)
	}
	// Breadth-first: a state's children get the next numbers, in order.
	order, number := []int{0}, make([]int32, len(tree))
	for i := 0; i < len(order); i++ {
		kids := tree[order[i]].kids
		chars := make([]byte, 0, len(kids))
		for c := range kids {
			chars = append(chars, c)
		}
		slices.Sort(chars)
		for _, c := range chars {
			number[kids[c]] = int32(len(order))
			order = append(order, kids[c])
		}
	}
	nodes, outs := make([]Node, len(order)), []int32(nil)
	children := uint32(0)
	for s, o := range order {
		nd := &nodes[s]
		*nd = Node{Parent: None, OutLink: None, Depth: tree[o].depth, Char: tree[o].char,
			NumEdges: uint16(len(tree[o].kids)), first: children + 1, outOff: uint32(len(outs))}
		children += uint32(len(tree[o].kids))
		if tree[o].out != None {
			nd.NumOut = 1
			outs = append(outs, tree[o].out)
		}
	}
	for s, o := range order {
		for _, k := range tree[o].kids {
			nodes[number[k]].Parent = int32(s)
		}
	}
	return nodes, outs
}

// TestLayoutMatchesInsertionOracle: Layout's breadth-first partition —
// its sort keys read from one flat copy of the pattern bytes, a run of one
// pattern laid out without a sort, an insertion sort for a narrow run and a
// counting sort for a wide one — builds the very trie plain insertion and
// breadth-first renumbering build: the same nodes, so the same children in
// the same order, and the same outputs. And it still refuses what it
// refused, in the same words.
func TestLayoutMatchesInsertionOracle(t *testing.T) {
	sets := map[string]*ruleset.Set{}
	for _, n := range []int{634, 1204, 6275} {
		sets[fmt.Sprintf("generated %d", n)] = ruleset.MustGenerate(ruleset.GenConfig{N: n, Seed: 2010})
	}
	for seed := int64(0); seed < 12; seed++ {
		sets[fmt.Sprintf("random seed %d", seed)] = smallSet(seed, 60, 2+int(seed%5), 9)
	}
	oneByte := &ruleset.Set{}
	for c := range 256 {
		oneByte.Patterns = append(oneByte.Patterns, ruleset.Pattern{ID: 255 - c, Data: []byte{byte(c)}})
	}
	sets["256 one-byte patterns"] = oneByte
	sets["nested prefixes"] = &ruleset.Set{Patterns: []ruleset.Pattern{
		{ID: 3, Data: []byte("abc")}, {ID: 1, Data: []byte("a")}, {ID: 2, Data: []byte("ab")},
	}}
	// Forty patterns through "pre", which ends one more: the state's run is
	// wider than 32, and its patterns come in no byte order, several to a
	// next byte, so the counting sort's stability decides the numbering.
	wide := &ruleset.Set{Patterns: []ruleset.Pattern{{ID: 40, Data: []byte("pre")}}}
	for k := range 40 {
		wide.Patterns = append(wide.Patterns, ruleset.Pattern{ID: k, Data: []byte{'p', 'r', 'e', byte('z' - k%7), byte(k), 'x'}})
	}
	sets["40-pattern run through one state"] = wide

	for name, set := range sets {
		tr, err := Layout(set)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		nodes, outs := insertionLayout(set)
		if len(tr.Nodes) != len(nodes) {
			t.Fatalf("%s: Layout makes %d states, insertion %d", name, len(tr.Nodes), len(nodes))
		}
		for s := range nodes {
			if tr.Nodes[s] != nodes[s] {
				t.Fatalf("%s: state %d is %+v, insertion's is %+v", name, s, tr.Nodes[s], nodes[s])
			}
		}
		if !slices.Equal(tr.outs, outs) {
			t.Fatalf("%s: Layout's outputs differ from insertion's", name)
		}
	}

	p := func(id int, data string) ruleset.Pattern { return ruleset.Pattern{ID: id, Data: []byte(data)} }
	for _, tc := range []struct {
		patterns []ruleset.Pattern
		want     string
	}{
		{[]ruleset.Pattern{p(0, "ab"), p(1, "")}, "ac: pattern 1 is empty"},
		{[]ruleset.Pattern{p(4, "ab"), p(4, "cd")}, "ac: duplicate pattern ID 4"},
		{[]ruleset.Pattern{p(5, "abc"), p(9, "x"), p(7, "abc")}, `ac: patterns 5 and 7 have the same content "abc"`},
		{[]ruleset.Pattern{p(5, "x"), p(9, "x")}, `ac: patterns 5 and 9 have the same content "x"`},
	} {
		if _, err := Layout(&ruleset.Set{Patterns: tc.patterns}); err == nil || err.Error() != tc.want {
			t.Errorf("Layout(%v) says %v, want %q", tc.patterns, err, tc.want)
		}
	}
	if _, err := Layout(&ruleset.Set{}); err == nil || !strings.Contains(err.Error(), "empty pattern set") {
		t.Errorf("Layout of no patterns says %v", err)
	}
}
