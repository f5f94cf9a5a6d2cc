package ac

import "fmt"

// Rebuild reconstructs a Trie from its node table and its two arenas, for
// deserialization: nodes carry their edge and output counts, edges and outs
// hold every state's entries back to back in state order, and Rebuild lays
// the nodes out over them. All three slices become the trie's own. It
// validates the structural invariants a BFS-built trie guarantees: indices
// in range, root at 0, parent depth monotonicity, sorted edges, and fail
// targets strictly shallower than their states.
func Rebuild(nodes []Node, edges []Edge, outs []int32) (*Trie, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("ac: no nodes")
	}
	root := nodes[0]
	if root.Parent != None || root.Depth != 0 {
		return nil, fmt.Errorf("ac: state 0 is not a root (parent %d, depth %d)", root.Parent, root.Depth)
	}
	if ne, no := layOut(nodes); int(ne) != len(edges) || int(no) != len(outs) {
		return nil, fmt.Errorf("ac: nodes count %d edges and %d outputs, tables hold %d and %d", ne, no, len(edges), len(outs))
	}
	t := &Trie{Nodes: nodes, edges: edges, outs: outs}
	n := int32(len(nodes))
	for i := int32(1); i < n; i++ {
		nd := nodes[i]
		if nd.Parent < 0 || nd.Parent >= n {
			return nil, fmt.Errorf("ac: state %d parent %d out of range", i, nd.Parent)
		}
		if nd.Depth != nodes[nd.Parent].Depth+1 {
			return nil, fmt.Errorf("ac: state %d depth %d inconsistent with parent depth %d",
				i, nd.Depth, nodes[nd.Parent].Depth)
		}
		if nd.Fail < 0 || nd.Fail >= n {
			return nil, fmt.Errorf("ac: state %d fail %d out of range", i, nd.Fail)
		}
		if nodes[nd.Fail].Depth >= nd.Depth {
			return nil, fmt.Errorf("ac: state %d fail %d not shallower", i, nd.Fail)
		}
		if nd.OutLink != None {
			if nd.OutLink < 0 || nd.OutLink >= n {
				return nil, fmt.Errorf("ac: state %d outlink %d out of range", i, nd.OutLink)
			}
			if nodes[nd.OutLink].NumOut == 0 {
				return nil, fmt.Errorf("ac: state %d outlink %d has no outputs", i, nd.OutLink)
			}
		}
	}
	for i := int32(0); i < n; i++ {
		edges := t.Edges(i)
		for j, e := range edges {
			if j > 0 && edges[j-1].Char >= e.Char {
				return nil, fmt.Errorf("ac: state %d edges not strictly sorted", i)
			}
			if e.To <= 0 || e.To >= n {
				return nil, fmt.Errorf("ac: state %d edge to %d out of range", i, e.To)
			}
			if nodes[e.To].Parent != i || nodes[e.To].Char != e.Char {
				return nil, fmt.Errorf("ac: state %d edge %q does not match child %d", i, e.Char, e.To)
			}
		}
	}
	return t, nil
}
