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

// Node is one state of the automaton. Edges hold only the trie (goto)
// transitions, sorted by character; the full move function is derived via
// the fail chain.
type Node struct {
	Parent  int32
	Fail    int32
	OutLink int32 // nearest fail-ancestor with its own outputs, or None
	Depth   int32
	Char    byte    // label of the edge from Parent (undefined for Root)
	Edges   []Edge  // sorted by Char
	Out     []int32 // pattern IDs ending exactly at this state
}

// Trie is the Aho-Corasick automaton for a pattern set.
type Trie struct {
	Nodes []Node
	// patLen maps pattern ID to its length in bytes, for match start
	// computation. IDs are the (possibly sparse) ruleset IDs.
	patLen map[int32]int
}

// Match reports one pattern occurrence. End is the byte offset one past the
// last matched byte; the match occupies [End-Len, End).
type Match struct {
	PatternID int32
	End       int
}

// New builds the trie, failure function and output links for set.
func New(set *ruleset.Set) (*Trie, error) {
	if set.Len() == 0 {
		return nil, fmt.Errorf("ac: empty pattern set")
	}
	if err := set.Validate(); err != nil {
		return nil, fmt.Errorf("ac: %w", err)
	}
	// One state per pattern byte is the ceiling; building into that and
	// copying the states that exist into a slice of exactly their number
	// costs one allocation each, where growing by append re-copies the
	// table a dozen times and leaves its last spare capacity live.
	ceiling := 1
	for _, p := range set.Patterns {
		ceiling += len(p.Data)
	}
	t := &Trie{
		Nodes:  make([]Node, 1, ceiling),
		patLen: make(map[int32]int, set.Len()),
	}
	t.Nodes[Root] = Node{Parent: None, Fail: Root, OutLink: None}
	for _, p := range set.Patterns {
		t.insert(p)
	}
	t.Nodes = append(make([]Node, 0, len(t.Nodes)), t.Nodes...)
	t.buildFails()
	return t, nil
}

func (t *Trie) insert(p ruleset.Pattern) {
	cur := Root
	for _, c := range p.Data {
		next := t.edgeTo(cur, c)
		if next == None {
			t.Nodes = append(t.Nodes, Node{
				Parent:  cur,
				Fail:    Root,
				OutLink: None,
				Depth:   t.Nodes[cur].Depth + 1,
				Char:    c,
			})
			next = int32(len(t.Nodes) - 1)
			t.insertEdge(cur, Edge{Char: c, To: next})
		}
		cur = next
	}
	t.Nodes[cur].Out = append(t.Nodes[cur].Out, int32(p.ID))
	t.patLen[int32(p.ID)] = len(p.Data)
}

// edgeTo returns the goto target of (s, c), or None.
func (t *Trie) edgeTo(s int32, c byte) int32 {
	edges := t.Nodes[s].Edges
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

func (t *Trie) insertEdge(s int32, e Edge) {
	edges := t.Nodes[s].Edges
	lo := 0
	for lo < len(edges) && edges[lo].Char < e.Char {
		lo++
	}
	edges = append(edges, Edge{})
	copy(edges[lo+1:], edges[lo:])
	edges[lo] = e
	t.Nodes[s].Edges = edges
}

// buildFails computes the failure function and output links breadth-first,
// exactly as in Aho & Corasick (1975).
func (t *Trie) buildFails() {
	queue := make([]int32, 0, len(t.Nodes))
	// Most fail chains run out at the start state, the widest node of the
	// trie: its gotos are looked up in a table instead of by search.
	var rootGoto [256]int32
	for c := range rootGoto {
		rootGoto[c] = None
	}
	for _, e := range t.Nodes[Root].Edges {
		rootGoto[e.Char] = e.To
		t.Nodes[e.To].Fail = Root
		queue = append(queue, e.To)
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, e := range t.Nodes[u].Edges {
			v := e.To
			// Follow u's fail chain to find the deepest proper suffix state
			// with a goto on e.Char.
			w := None
			for f := t.Nodes[u].Fail; w == None; f = t.Nodes[f].Fail {
				if f == Root {
					w = rootGoto[e.Char]
					break
				}
				w = t.edgeTo(f, e.Char)
			}
			if w != None && w != v {
				t.Nodes[v].Fail = w
			} else {
				t.Nodes[v].Fail = Root
			}
			fail := t.Nodes[v].Fail
			if len(t.Nodes[fail].Out) > 0 {
				t.Nodes[v].OutLink = fail
			} else {
				t.Nodes[v].OutLink = t.Nodes[fail].OutLink
			}
			queue = append(queue, v)
		}
	}
}

// NumStates returns the number of states including the start state. This is
// the "States" column of Table II.
func (t *Trie) NumStates() int { return len(t.Nodes) }

// PatternLen returns the length of pattern id, or 0 if unknown.
func (t *Trie) PatternLen(id int32) int { return t.patLen[id] }

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
		for _, id := range t.Nodes[cur].Out {
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
		for _, id := range t.Nodes[cur].Out {
			out = append(out, Match{PatternID: id, End: end})
		}
	}
	return out
}

// HasOutput reports whether any pattern ends at state s.
func (t *Trie) HasOutput(s int32) bool {
	return len(t.Nodes[s].Out) > 0 || t.Nodes[s].OutLink != None
}

// FindAll scans data with move-function semantics and returns every match
// in order of match end (ties in insertion order).
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
// Aho-Corasick" block) and core.Machine.VerifyTransitions. Package core
// builds, loads and bakes machines from the edges and fail links alone.
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
	for _, e := range t.Nodes[Root].Edges {
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
		for _, e := range t.Nodes[s].Edges {
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
