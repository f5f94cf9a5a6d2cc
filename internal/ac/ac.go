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
// flat all the same — a table of 32-byte nodes and two arenas, goto edges
// and own outputs, no allocation per state, reached through Trie.Edges and
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

// Edge is a goto transition: consuming Char moves to state To, one level
// deeper in the trie.
type Edge struct {
	Char byte
	To   int32
}

// Node is one state of the automaton: 32 pointer-free bytes. Its goto
// transitions and its own outputs live in two trie-wide arenas, both laid
// out in state order, and are read through Trie.Edges and Trie.Out; the
// node carries only their counts and where they start. The full move
// function is derived via the fail chain.
type Node struct {
	Parent  int32
	Fail    int32
	OutLink int32 // nearest fail-ancestor with its own outputs, or None
	Depth   int32
	// edgeOff and outOff locate the state's slices of Trie.edges and
	// Trie.outs. They are layout — the prefix sums of the counts — never
	// data.
	edgeOff  uint32
	outOff   uint32
	NumEdges uint16 // goto transitions out of this state
	NumOut   uint16 // patterns ending exactly at this state
	Char     byte   // label of the edge from Parent (undefined for Root)
}

// Trie is the Aho-Corasick automaton for a pattern set: the node table and
// two flat arenas, however many states there are.
type Trie struct {
	Nodes []Node
	// edges holds every state's goto transitions, state 0's first, each
	// state's sorted by character. outs holds every state's own pattern ID
	// the same way — a state ends at most one pattern, as two ending on one
	// state would have the same content. IDs are the (possibly sparse)
	// ruleset IDs.
	edges []Edge
	outs  []int32
}

// Match reports one pattern occurrence. End is the byte offset one past the
// last matched byte; the match occupies [End-Len, End).
type Match struct {
	PatternID int32
	End       int
}

// Edges returns the goto transitions out of state s, sorted by character.
// The slice aliases the trie's arena: read-only.
func (t *Trie) Edges(s int32) []Edge {
	nd := &t.Nodes[s]
	return t.edges[nd.edgeOff : nd.edgeOff+uint32(nd.NumEdges)]
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
// range, a state's children are consecutive, edge k leads to state k+1, and
// the numbering depends on the patterns' contents, not their order.
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
	pats := set.Patterns
	t := &Trie{Nodes: make([]Node, 1, ceiling), outs: make([]int32, 0, len(pats))}
	runs, spare := make([]int32, len(pats)), make([]int32, len(pats))
	for i := range runs {
		runs[i] = int32(i)
	}
	// Until a state is reached its edgeOff and outOff bound its run of
	// pattern indices; then they become its arena offsets.
	t.Nodes[Root] = Node{Parent: None, OutLink: None, outOff: uint32(len(pats))}
	for s := int32(0); int(s) < len(t.Nodes); s++ {
		nd := &t.Nodes[s]
		run, depth := runs[nd.edgeOff:nd.outOff], nd.Depth
		lo := nd.edgeOff
		nd.edgeOff, nd.outOff = uint32(len(t.Nodes)-1), uint32(len(t.outs))
		// A pattern as long as the state is deep sorts first and ends here;
		// a second one has the same bytes.
		sortByByte(pats, run, spare[lo:lo+uint32(len(run))], depth)
		if len(run) > 0 && len(pats[run[0]].Data) == int(depth) {
			if len(run) > 1 && len(pats[run[1]].Data) == int(depth) {
				a, b := pats[run[0]], pats[run[1]]
				return nil, fmt.Errorf("ac: patterns %d and %d have the same content %q", a.ID, b.ID, a.Data)
			}
			t.outs = append(t.outs, int32(pats[run[0]].ID))
			nd.NumOut = 1
			run, lo = run[1:], lo+1
		}
		for k := 0; k < len(run); {
			c, from := pats[run[k]].Data[depth], k
			for k < len(run) && pats[run[k]].Data[depth] == c {
				k++
			}
			t.Nodes = t.Nodes[:len(t.Nodes)+1]
			ch := &t.Nodes[len(t.Nodes)-1]
			ch.Parent, ch.OutLink, ch.Depth, ch.Char = s, None, depth+1, c
			ch.edgeOff, ch.outOff = lo+uint32(from), lo+uint32(k)
			nd.NumEdges++
		}
	}
	t.edges = make([]Edge, len(t.Nodes)-1)
	for k := range t.edges {
		t.edges[k] = Edge{Char: t.Nodes[k+1].Char, To: int32(k + 1)}
	}
	return t, nil
}

// sortByByte orders run, indices of patterns at least depth long, stably by
// their byte at depth, those that end there first: a counting sort through
// spare, as long as run, or an insertion sort when run is narrow.
func sortByByte(pats []ruleset.Pattern, run, spare []int32, depth int32) {
	key := func(i int32) int {
		if d := pats[i].Data; int(depth) < len(d) {
			return int(d[depth]) + 1
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
	var at [258]int32
	for _, i := range run {
		at[key(i)+1]++
	}
	for k := 1; k < len(at); k++ {
		at[k] += at[k-1]
	}
	for _, i := range run {
		k := key(i)
		spare[at[k]] = i
		at[k]++
	}
	copy(run, spare)
}

// edgeTo returns the goto target of (s, c), or None.
func (t *Trie) edgeTo(s int32, c byte) int32 {
	edges := t.Edges(s)
	lo, hi := 0, len(edges)
	for lo < hi {
		mid := (lo + hi) / 2
		if edges[mid].Char < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(edges) && edges[lo].Char == c {
		return edges[lo].To
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
	for _, e := range t.Edges(Root) {
		rootGoto[e.Char] = e.To
	}
	for v := int32(1); v < int32(len(t.Nodes)); v++ {
		nd := &t.Nodes[v]
		// Follow the parent's fail chain to the deepest proper suffix state
		// with a goto on the state's character.
		w := rootGoto[nd.Char]
	chain:
		for f := t.Nodes[nd.Parent].Fail; f != Root; f = t.Nodes[f].Fail {
			for _, e := range t.Edges(f) {
				if e.Char == nd.Char {
					w = e.To
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
	for _, e := range t.Edges(Root) {
		rootRow[e.Char] = e.To
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
		for _, e := range t.Edges(s) {
			row[e.Char] = e.To
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
