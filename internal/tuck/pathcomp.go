package tuck

import (
	"fmt"
	"math/bits"

	"repro/internal/ac"
	"repro/internal/ruleset"
)

// Path compression ([13] §4.2) collapses maximal chains of single-child
// states into byte-run segments. A state of the compressed automaton is a
// (node, offset) pair: branch nodes keep the 256-bit bitmap discipline,
// path nodes are indexed by position within the run. Failure pointers must
// be kept per position, because a mismatch can occur anywhere inside a run.

// Memory layout constants per the structure description in [13]:
// a path node position stores its character (1 byte), a failure pointer
// (4 bytes) and a match-list reference (4 bytes); a path node additionally
// stores a 4-byte next pointer and a 1-byte length; branch nodes reuse the
// bitmap node layout with a 4-byte per-child reference table (children are
// heterogeneous, so popcount indexes into a pointer table rather than a
// contiguous node array).
const (
	pathPosBytes        = 1 + 4 + 4
	pathHeaderBytes     = 4 + 1
	branchNodeBaseBytes = 32 + 4 + 4 // bitmap + fail + match reference
	branchChildRefBytes = 4
)

// Ref addresses a state of the path-compressed automaton.
type Ref struct {
	Node int32 // index into PathAC.Branches (Kind false) or PathAC.Paths (Kind true)
	Off  int32 // position within a path run; 0 for branch nodes
	Path bool  // true when the ref points into a path node
}

// RootRef is the start state.
var RootRef = Ref{Node: 0}

// PathPos is one collapsed trie state inside a run.
type PathPos struct {
	Char    byte
	Fail    Ref
	Out     []int32
	OutLink Ref
	HasOutL bool
}

// PathNode is a maximal single-child chain.
type PathNode struct {
	Run      []PathPos
	Next     Ref  // the branch state reached on NextChar from the last position
	NextChar byte // character labeling the transition into Next
	Leaf     bool // true when the chain ends the string (Next invalid)
}

// BranchNode is a state with 0 or ≥2 children (or the root).
type BranchNode struct {
	Bitmap   [4]uint64
	Children []Ref // sorted by character, popcount-indexed
	Fail     Ref
	Out      []int32
	OutLink  Ref
	HasOutL  bool
}

// PathAC is the path-compressed automaton.
type PathAC struct {
	Branches []BranchNode
	Paths    []PathNode
	Steps    int64
	Chars    int64
}

// BuildPath constructs the path-compressed automaton for set.
func BuildPath(set *ruleset.Set) (*PathAC, error) {
	trie, err := ac.New(set)
	if err != nil {
		return nil, fmt.Errorf("tuck: %w", err)
	}
	p := &PathAC{}
	refOf := make([]Ref, trie.NumStates())

	// Pass 1: partition trie states into branch nodes and path runs.
	// A state joins a run when it has exactly one child and is not the
	// root; runs are maximal downward chains.
	isPathState := func(s int32) bool {
		return s != ac.Root && trie.Nodes[s].NumEdges == 1
	}
	// Allocate refs: walk from the root; chains started by a branch node's
	// child are collapsed greedily.
	var walk func(s int32)
	walk = func(s int32) {
		if isPathState(s) {
			// Collapse the maximal chain starting at s.
			pn := PathNode{}
			idx := int32(len(p.Paths))
			p.Paths = append(p.Paths, PathNode{})
			cur := s
			for {
				refOf[cur] = Ref{Node: idx, Off: int32(len(pn.Run)), Path: true}
				pn.Run = append(pn.Run, PathPos{Char: trie.Nodes[cur].Char})
				child, _ := trie.Children(cur)
				if !isPathState(child) {
					// Child is a branch (or leaf with 0/≥2 edges): close run.
					if trie.Nodes[child].NumEdges == 0 && child != ac.Root {
						// The chain ends in a leaf state: absorb it too.
						refOf[child] = Ref{Node: idx, Off: int32(len(pn.Run)), Path: true}
						pn.Run = append(pn.Run, PathPos{Char: trie.Nodes[child].Char})
						pn.Leaf = true
						p.Paths[idx] = pn
						return
					}
					p.Paths[idx] = pn // Next filled in pass 2
					walk(child)
					return
				}
				cur = child
			}
		}
		// Branch node (root, leaf, or fan-out state).
		refOf[s] = Ref{Node: int32(len(p.Branches))}
		p.Branches = append(p.Branches, BranchNode{})
		for v, end := trie.Children(s); v < end; v++ {
			walk(v)
		}
	}
	// The walk must start runs at children of branch nodes, so handle the
	// root first and descend.
	refOf[ac.Root] = Ref{Node: 0}
	p.Branches = append(p.Branches, BranchNode{})
	for v, end := trie.Children(ac.Root); v < end; v++ {
		walk(v)
	}

	// Pass 2: fill node contents now that every state has a ref.
	for s := int32(0); s < int32(trie.NumStates()); s++ {
		nd := trie.Nodes[s]
		ref := refOf[s]
		fail := refOf[nd.Fail]
		outLink, hasOutL := Ref{}, false
		if nd.OutLink != ac.None {
			outLink, hasOutL = refOf[nd.OutLink], true
		}
		if ref.Path {
			pos := &p.Paths[ref.Node].Run[ref.Off]
			pos.Fail = fail
			pos.Out = append([]int32(nil), trie.Out(s)...)
			pos.OutLink = outLink
			pos.HasOutL = hasOutL
			// Close the run's Next when this is the last position and the
			// chain continues into a branch node.
			pn := &p.Paths[ref.Node]
			if int(ref.Off) == len(pn.Run)-1 && !pn.Leaf {
				next, _ := trie.Children(s)
				pn.Next = refOf[next]
				pn.NextChar = trie.Nodes[next].Char
			}
		} else {
			bn := &p.Branches[ref.Node]
			bn.Fail = fail
			bn.Out = append([]int32(nil), trie.Out(s)...)
			bn.OutLink = outLink
			bn.HasOutL = hasOutL
			for v, end := trie.Children(s); v < end; v++ {
				c := trie.Nodes[v].Char
				bn.Bitmap[c>>6] |= 1 << (uint(c) & 63)
				bn.Children = append(bn.Children, refOf[v])
			}
		}
	}
	if got := p.countStates(); got != trie.NumStates() {
		return nil, fmt.Errorf("tuck: path compression lost states: %d != %d", got, trie.NumStates())
	}
	return p, nil
}

func (p *PathAC) countStates() int {
	n := len(p.Branches)
	for i := range p.Paths {
		n += len(p.Paths[i].Run)
	}
	return n
}

// gotoStep attempts the goto transition from state r on c; ok reports
// whether one exists.
func (p *PathAC) gotoStep(r Ref, c byte) (Ref, bool) {
	if r.Path {
		pn := &p.Paths[r.Node]
		if int(r.Off) < len(pn.Run)-1 {
			if pn.Run[r.Off+1].Char == c {
				return Ref{Node: r.Node, Off: r.Off + 1, Path: true}, true
			}
			return Ref{}, false
		}
		// Last position of the run: the only goto leads into the branch
		// node that terminated the chain.
		if pn.Leaf || pn.NextChar != c {
			return Ref{}, false
		}
		return pn.Next, true
	}
	bn := &p.Branches[r.Node]
	if bn.Bitmap[c>>6]&(1<<(uint(c)&63)) == 0 {
		return Ref{}, false
	}
	// Popcount rank into the child table.
	rank := 0
	for w := 0; w < int(c>>6); w++ {
		rank += bits.OnesCount64(bn.Bitmap[w])
	}
	rank += bits.OnesCount64(bn.Bitmap[c>>6] & ((1 << (uint(c) & 63)) - 1))
	return bn.Children[rank], true
}

func (p *PathAC) failOf(r Ref) Ref {
	if r.Path {
		return p.Paths[r.Node].Run[r.Off].Fail
	}
	return p.Branches[r.Node].Fail
}

// Scan matches data, counting automaton steps.
func (p *PathAC) Scan(data []byte, emit func(ac.Match)) {
	s := RootRef
	for i, c := range data {
		p.Chars++
		for {
			p.Steps++
			if next, ok := p.gotoStep(s, c); ok {
				s = next
				break
			}
			if s == RootRef {
				break
			}
			s = p.failOf(s)
		}
		p.emitOutputs(s, i+1, emit)
	}
}

func (p *PathAC) emitOutputs(r Ref, end int, emit func(ac.Match)) {
	for {
		var out []int32
		var link Ref
		var hasLink bool
		if r.Path {
			pos := &p.Paths[r.Node].Run[r.Off]
			out, link, hasLink = pos.Out, pos.OutLink, pos.HasOutL
		} else {
			bn := &p.Branches[r.Node]
			out, link, hasLink = bn.Out, bn.OutLink, bn.HasOutL
		}
		for _, id := range out {
			emit(ac.Match{PatternID: id, End: end})
		}
		if !hasLink {
			return
		}
		r = link
	}
}

// FindAll returns all matches in data.
func (p *PathAC) FindAll(data []byte) []ac.Match {
	var out []ac.Match
	p.Scan(data, func(m ac.Match) { out = append(out, m) })
	return out
}

// StepsPerChar reports average automaton steps per scanned character.
func (p *PathAC) StepsPerChar() float64 {
	if p.Chars == 0 {
		return 0
	}
	return float64(p.Steps) / float64(p.Chars)
}

// MemoryBytes returns the structure's footprint under the documented
// layout constants.
func (p *PathAC) MemoryBytes() int {
	total := 0
	for i := range p.Branches {
		bn := &p.Branches[i]
		total += branchNodeBaseBytes + len(bn.Children)*branchChildRefBytes
		total += len(bn.Out) * matchEntryBytes
	}
	for i := range p.Paths {
		pn := &p.Paths[i]
		total += pathHeaderBytes + len(pn.Run)*pathPosBytes
		for j := range pn.Run {
			total += len(pn.Run[j].Out) * matchEntryBytes
		}
	}
	return total
}
