// Package ac implements the Aho-Corasick multi-pattern matching substrate
// the paper builds on (§III.A): the pattern trie, the failure function, and
// the two classic matching disciplines —
//
//   - the goto/fail automaton, which is memory-lean but may spend several
//     cycles per input character following fail transitions, and
//   - the move-function DFA, which stores every possible transition and
//     guarantees exactly one state transition per input character.
//
// The paper's contribution (package core) compresses the move-function DFA;
// this package supplies the uncompressed machine, bulk iteration over its
// transition rows, and a naive oracle used to cross-check every matcher.
//
// A Trie is scaffolding: package core compresses one into a Machine and lets
// it go, and a verifier or drawing that needs the uncompressed automaton
// later is handed another built from the ruleset. It is laid out
// flat all the same — a table of 32-byte nodes and an arena of own outputs,
// no allocation per state. A state's goto edges lead to its children, which
// breadth-first numbering makes consecutive (Trie.Children), and each is
// labelled with its target's Char; its own outputs are read through
// Trie.Out. A pattern's length is the depth of the state that outputs it.
// New builds one in two phases, which a caller may run itself: Layout, the
// states and arenas, then Link, the fail and output links.
package ac

import (
	"fmt"

	"repro/internal/ruleset"
)

// Root is the state number of the start state.
const Root int32 = 0

// None marks an absent state reference.
const None int32 = -1

// Node is one state of the automaton: 32 pointer-free bytes. Its goto
// transitions lead to its children, read through Trie.Children, and its own
// outputs live in a trie-wide arena laid out in state order, read through
// Trie.Out; the node carries only their counts and where they start. The
// full move function is derived via the fail chain.
type Node struct {
	Parent  int32
	Fail    int32
	OutLink int32 // nearest fail-ancestor with its own outputs, or None
	Depth   int32
	// first is the state's first child and outOff locates its slice of
	// Trie.outs. They are layout, never data.
	first    uint32
	outOff   uint32
	NumEdges uint16 // goto transitions out of this state
	NumOut   uint16 // patterns ending exactly at this state
	Char     byte   // label of the edge from Parent (undefined for Root)
}

// Trie is the Aho-Corasick automaton for a pattern set: the node table and
// one flat arena, however many states there are.
type Trie struct {
	Nodes []Node
	// outs holds every state's own pattern ID, state 0's first — a state
	// ends at most one pattern, as two ending on one state would have the
	// same content. IDs are the (possibly sparse) ruleset IDs.
	outs []int32
}

// Match reports one pattern occurrence. End is the byte offset one past the
// last matched byte; the match occupies [End-Len, End).
type Match struct {
	PatternID int32
	End       int
}

// Children returns the targets of state s's goto transitions, the states
// lo … hi-1: breadth-first numbering makes them consecutive and puts them
// in character order, and the transition into v consumes Nodes[v].Char.
func (t *Trie) Children(s int32) (lo, hi int32) {
	nd := &t.Nodes[s]
	return int32(nd.first), int32(nd.first) + int32(nd.NumEdges)
}

// Out returns the IDs of the patterns ending exactly at state s (not those
// inherited along the fail chain; see AppendOutputs). The slice aliases the
// trie's arena: read-only.
func (t *Trie) Out(s int32) []int32 {
	nd := &t.Nodes[s]
	return t.outs[nd.outOff : nd.outOff+uint32(nd.NumOut)]
}

// New builds the trie, failure function and output links for set: Layout,
// then Link.
func New(set *ruleset.Set) (*Trie, error) {
	t, err := Layout(set)
	if err == nil {
		t.Link()
	}
	return t, err
}

// Layout builds the trie of set — its states, goto edges and own outputs —
// with every fail link at the start state and no output links, for Link to
// fill in. It refuses what Set.Validate refuses — an empty pattern, an ID
// outside the 13-bit range, a repeated ID or repeated content — checking
// IDs against a bitset, content by two patterns ending on one state.
//
// States are laid out breadth-first: each owns the patterns through it, a
// run of one index array in input order, split stably by their next byte,
// so its children are made in character order and numbered as reached. A
// state's parent and fail parent have lower numbers, each depth is one
// range, a state's children are consecutive, and the numbering depends on
// the patterns' contents, not their order.
func Layout(set *ruleset.Set) (*Trie, error) {
	if set.Len() == 0 {
		return nil, fmt.Errorf("ac: empty pattern set")
	}
	// One state per pattern byte is the ceiling, so the node table never
	// moves while states are added in place.
	ceiling := 1
	var seenID [(ruleset.IDSpace + 63) / 64]uint64
	for i, p := range set.Patterns {
		if len(p.Data) == 0 {
			return nil, fmt.Errorf("ac: pattern %d is empty", i)
		}
		if p.ID < 0 || p.ID >= ruleset.IDSpace {
			return nil, fmt.Errorf("ac: pattern ID %d outside the usable 13-bit range [0,%d]", p.ID, ruleset.IDSpace-1)
		}
		w, bit := p.ID>>6, uint64(1)<<(p.ID&63)
		if seenID[w]&bit != 0 {
			return nil, fmt.Errorf("ac: duplicate pattern ID %d", p.ID)
		}
		seenID[w] |= bit
		ceiling += len(p.Data)
	}
	// The sort keys are read from one flat copy of the pattern bytes:
	// pattern i is flat[at[i]:at[i+1]].
	pats := set.Patterns
	nodes, outs := make([]Node, 1, ceiling), make([]int32, 0, len(pats))
	flat, idx := make([]byte, 0, ceiling-1), make([]int32, 3*len(pats)+1)
	runs, spare, at := idx[:len(pats)], idx[len(pats):2*len(pats)], idx[2*len(pats):]
	for i, p := range pats {
		runs[i], at[i] = int32(i), int32(len(flat))
		flat = append(flat, p.Data...)
	}
	at[len(pats)] = int32(len(flat))
	// Until a state is reached its first and outOff bound its run of
	// pattern indices; then they become its first child and arena offset.
	nodes[Root] = Node{Parent: None, OutLink: None, outOff: uint32(len(pats))}
	for s := int32(0); int(s) < len(nodes); s++ {
		nd := &nodes[s]
		lo, hi, depth := nd.first, nd.outOff, nd.Depth
		nd.first, nd.outOff = uint32(len(nodes)), uint32(len(outs))
		if hi-lo == 1 {
			// One pattern's own path: it ends here or has one child, and
			// there is nothing to sort.
			if i := runs[lo]; at[i]+depth == at[i+1] {
				outs = append(outs, int32(pats[i].ID))
				nd.NumOut = 1
			} else {
				nodes = append(nodes, Node{Parent: s, OutLink: None, Depth: depth + 1, Char: flat[at[i]+depth], first: lo, outOff: hi})
				nd.NumEdges = 1
			}
			continue
		}
		// A pattern as long as the state is deep sorts first and ends here;
		// a second one has the same bytes.
		run := runs[lo:hi]
		sortByByte(flat, at, run, spare[lo:hi], depth)
		if i := run[0]; at[i]+depth == at[i+1] {
			if j := run[1]; at[j]+depth == at[j+1] {
				a, b := pats[i], pats[j]
				return nil, fmt.Errorf("ac: patterns %d and %d have the same content %q", a.ID, b.ID, a.Data)
			}
			outs = append(outs, int32(pats[i].ID))
			nd.NumOut = 1
			run, lo = run[1:], lo+1
		}
		for k := 0; k < len(run); {
			c, from := flat[at[run[k]]+depth], k
			for k < len(run) && flat[at[run[k]]+depth] == c {
				k++
			}
			nodes = append(nodes, Node{Parent: s, OutLink: None, Depth: depth + 1, Char: c, first: lo + uint32(from), outOff: lo + uint32(k)})
			nd.NumEdges++
		}
	}
	return &Trie{Nodes: nodes, outs: outs}, nil
}

// sortByByte orders run, indices of patterns at least depth long, stably by
// their byte at depth, those that end there first: a counting sort through
// spare, as long as run, or an insertion sort when run is narrow. Pattern i
// is flat[at[i]:at[i+1]].
func sortByByte(flat []byte, at, run, spare []int32, depth int32) {
	key := func(i int32) int {
		if k := at[i] + depth; k < at[i+1] {
			return int(flat[k]) + 1
		}
		return 0
	}
	if len(run) <= 32 {
		for i := 1; i < len(run); i++ {
			v, k := run[i], key(run[i])
			j := i
			for ; j > 0 && key(run[j-1]) > k; j-- {
				run[j] = run[j-1]
			}
			run[j] = v
		}
		return
	}
	var n [258]int32
	for _, i := range run {
		n[key(i)+1]++
	}
	for k := 1; k < len(n); k++ {
		n[k] += n[k-1]
	}
	for _, i := range run {
		k := key(i)
		spare[n[k]] = i
		n[k]++
	}
	copy(run, spare)
}

// edgeTo returns the goto target of (s, c), or None.
func (t *Trie) edgeTo(s int32, c byte) int32 {
	lo, end := t.Children(s)
	for hi := end; lo < hi; {
		mid := (lo + hi) / 2
		if t.Nodes[mid].Char < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < end && t.Nodes[lo].Char == c {
		return lo
	}
	return None
}

// Link computes the failure function and output links breadth-first,
// exactly as in Aho & Corasick (1975) — which, states being numbered
// breadth-first, is one forward sweep: a state's parent and fail parent are
// shallower, so both are done when the sweep reaches it. Where a chain
// runs out, at the start state, its goto is one table lookup; elsewhere a
// state's few children are scanned. Link writes Node.Fail and Node.OutLink
// and nothing else, so a reader of the rest of the trie may run beside it.
func (t *Trie) Link() {
	var rootGoto [256]int32
	for c := range rootGoto {
		rootGoto[c] = None
	}
	lo, hi := t.Children(Root)
	for v := lo; v < hi; v++ {
		rootGoto[t.Nodes[v].Char] = v
	}
	for v := int32(1); v < int32(len(t.Nodes)); v++ {
		nd := &t.Nodes[v]
		// Follow the parent's fail chain to the deepest proper suffix state
		// with a goto on the state's character.
		w := rootGoto[nd.Char]
	chain:
		for f := t.Nodes[nd.Parent].Fail; f != Root; f = t.Nodes[f].Fail {
			for u, end := t.Children(f); u < end; u++ {
				if t.Nodes[u].Char == nd.Char {
					w = u
					break chain
				}
			}
		}
		if w != None && w != v {
			nd.Fail = w
		}
		if t.Nodes[nd.Fail].NumOut > 0 {
			nd.OutLink = nd.Fail
		} else {
			nd.OutLink = t.Nodes[nd.Fail].OutLink
		}
	}
}

// NumStates returns the number of states including the start state. This is
// the "States" column of Table II.
func (t *Trie) NumStates() int { return len(t.Nodes) }

// Move is the full-DFA move function: the state reached from s on input c,
// following the fail chain as needed. It never returns None; missing
// transitions resolve to Root.
func (t *Trie) Move(s int32, c byte) int32 {
	for {
		if next := t.edgeTo(s, c); next != None {
			return next
		}
		if s == Root {
			return Root
		}
		s = t.Nodes[s].Fail
	}
}

// EmitOutputs invokes fn for every pattern that ends at state s (own
// outputs plus those inherited along the fail chain). end is the payload
// offset one past the current byte.
func (t *Trie) EmitOutputs(s int32, end int, fn func(Match)) {
	for cur := s; cur != None; {
		for _, id := range t.Out(cur) {
			fn(Match{PatternID: id, End: end})
		}
		cur = t.Nodes[cur].OutLink
	}
}

// AppendOutputs appends a Match to out for every pattern that ends at
// state s, walking the same own-outputs-plus-fail-chain as EmitOutputs.
// It is the allocation-free form for hot scan loops: the caller owns the
// buffer and amortizes its growth across packets.
func (t *Trie) AppendOutputs(s int32, end int, out []Match) []Match {
	for cur := s; cur != None; cur = t.Nodes[cur].OutLink {
		for _, id := range t.Out(cur) {
			out = append(out, Match{PatternID: id, End: end})
		}
	}
	return out
}

// HasOutput reports whether any pattern ends at state s.
func (t *Trie) HasOutput(s int32) bool {
	return t.Nodes[s].NumOut > 0 || t.Nodes[s].OutLink != None
}

// FindAll scans data with move-function semantics and returns every match
// in order of match end, ties longest first: EmitOutputs' order, the
// state's own pattern and then its OutLink chain.
func (t *Trie) FindAll(data []byte) []Match {
	var out []Match
	s := Root
	for i, c := range data {
		s = t.Move(s, c)
		if t.HasOutput(s) {
			t.EmitOutputs(s, i+1, func(m Match) { out = append(out, m) })
		}
	}
	return out
}

// ForEachMoveRow calls fn once per state with that state's complete
// 256-entry move row (row[c] = Move(s, c)). Rows are computed by a
// depth-first walk of the *fail tree*: a state's row equals its fail
// parent's row overridden by its own goto edges, so the walk reuses one row
// buffer per tree level instead of materializing |states|×256 tables
// (which for the 6,275-string machine would be >100 MB).
//
// The row slice passed to fn is reused after fn returns; copy it to retain.
//
// This is the O(states × 256) view of the machine and it is for checking,
// not for building: its callers are ComputeMoveStats (Table II's "Original
// Aho-Corasick" block), core.Machine.Verify and hwsim's image proof.
// Package core builds and bakes machines from the edges and fail links
// alone.
func (t *Trie) ForEachMoveRow(fn func(s int32, row []int32)) {
	// Children lists of the fail tree.
	failKids := make([][]int32, len(t.Nodes))
	for i := 1; i < len(t.Nodes); i++ {
		f := t.Nodes[i].Fail
		failKids[f] = append(failKids[f], int32(i))
	}
	rootRow := make([]int32, 256)
	for c := 0; c < 256; c++ {
		rootRow[c] = Root
	}
	for v, end := t.Children(Root); v < end; v++ {
		rootRow[t.Nodes[v].Char] = v
	}
	fn(Root, rootRow)

	// Iterative DFS with an explicit stack of (state, row) frames. Row
	// buffers are pooled per depth level.
	type frame struct {
		state int32
		kidIx int
		row   []int32
	}
	var pool [][]int32
	getRow := func() []int32 {
		if n := len(pool); n > 0 {
			r := pool[n-1]
			pool = pool[:n-1]
			return r
		}
		return make([]int32, 256)
	}
	derive := func(parentRow []int32, s int32) []int32 {
		row := getRow()
		copy(row, parentRow)
		for v, end := t.Children(s); v < end; v++ {
			row[t.Nodes[v].Char] = v
		}
		return row
	}
	stack := []frame{{state: Root, row: rootRow}}
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		kids := failKids[top.state]
		if top.kidIx >= len(kids) {
			if top.state != Root {
				pool = append(pool, top.row)
			}
			stack = stack[:len(stack)-1]
			continue
		}
		child := kids[top.kidIx]
		top.kidIx++
		row := derive(top.row, child)
		fn(child, row)
		stack = append(stack, frame{state: child, row: row})
	}
}

// MoveStats summarizes the uncompressed move-function DFA: the "Original
// Aho-Corasick" block of Table II.
type MoveStats struct {
	States int
	// NonRootPointers counts transitions whose target is not the start
	// state — the pointers that must be stored ("Even only storing the
	// pointers which point to a state other than the start state can lead
	// to large memory usage", §III.B).
	NonRootPointers int64
	AvgPointers     float64
}

// ComputeMoveStats walks every move row and tallies stored-pointer counts.
func (t *Trie) ComputeMoveStats() MoveStats {
	var st MoveStats
	st.States = len(t.Nodes)
	t.ForEachMoveRow(func(s int32, row []int32) {
		for c := 0; c < 256; c++ {
			if row[c] != Root {
				st.NonRootPointers++
			}
		}
	})
	st.AvgPointers = float64(st.NonRootPointers) / float64(st.States)
	return st
}
