// Package tuck implements the two baselines the paper compares against in
// Table III, from Tuck, Sherwood, Calder and Varghese, "Deterministic
// memory-efficient string matching algorithms for intrusion detection"
// (INFOCOM 2004) — reference [13]:
//
//   - bitmap compression: every node carries a 256-bit bitmap; child
//     pointers are recovered by population count over the bitmap prefix, so
//     a node stores one base pointer instead of 256;
//   - path compression: maximal chains of single-child nodes are collapsed
//     into byte-run segments with per-position failure pointers.
//
// Both schemes keep the Aho-Corasick *failure* discipline, so they cannot
// guarantee one character per cycle — the paper's central contrast: "Both
// schemes also use fail pointers, meaning that they cannot guarantee the
// processing of a character on every clock cycle." The matchers here count
// automaton steps to expose exactly that behaviour, and the memory
// accounting reproduces the node layouts for Table III.
package tuck

import (
	"fmt"
	"math/bits"

	"repro/internal/ac"
	"repro/internal/ruleset"
)

// Memory layout constants for the bitmap scheme, per node:
// 32-byte bitmap + 4-byte first-child base pointer + 4-byte failure pointer
// + 4-byte match-list reference. Hardware implementations pad nodes to an
// aligned power-of-two line; MemoryBytes exposes both raw and aligned
// figures.
const (
	bitmapNodeRawBytes     = 32 + 4 + 4 + 4
	bitmapNodeAlignedBytes = 64
	matchEntryBytes        = 4 // one stored pattern ID in the match lists
)

// BitmapNode is one state of the bitmap-compressed automaton. Children are
// stored contiguously (BFS order) starting at FirstChild and indexed by the
// population count of the bitmap below the input character.
type BitmapNode struct {
	Bitmap     [4]uint64
	FirstChild int32
	Fail       int32
	OutLink    int32
	Out        []int32
}

// HasChild reports whether the node has a goto transition on c.
func (n *BitmapNode) HasChild(c byte) bool {
	return n.Bitmap[c>>6]&(1<<(uint(c)&63)) != 0
}

// ChildIndex returns the rank of c among the node's set bitmap bits; only
// valid when HasChild(c).
func (n *BitmapNode) ChildIndex(c byte) int32 {
	word := int(c >> 6)
	bit := uint(c) & 63
	rank := 0
	for w := 0; w < word; w++ {
		rank += bits.OnesCount64(n.Bitmap[w])
	}
	rank += bits.OnesCount64(n.Bitmap[word] & ((1 << bit) - 1))
	return int32(rank)
}

// BitmapAC is the bitmap-compressed Aho-Corasick automaton of [13] §4.1.
type BitmapAC struct {
	Nodes []BitmapNode
	// Steps / Chars count automaton transitions and input characters, as in
	// ac.FailMatcher; fail transitions make Steps/Chars exceed 1.
	Steps int64
	Chars int64
}

// BuildBitmap constructs the automaton for set. ac.New numbers states
// breadth-first, so each node's children already occupy a contiguous block
// — edge k of the trie's arena leads to state k+1 — which is what makes
// popcount indexing possible: a node's FirstChild is a running count of
// the edges before it, plus one.
func BuildBitmap(set *ruleset.Set) (*BitmapAC, error) {
	trie, err := ac.New(set)
	if err != nil {
		return nil, fmt.Errorf("tuck: %w", err)
	}
	b := &BitmapAC{Nodes: make([]BitmapNode, trie.NumStates())}
	next := int32(1)
	for s := range b.Nodes {
		src := &trie.Nodes[s]
		node := &b.Nodes[s]
		node.FirstChild = next
		next += int32(src.NumEdges)
		for _, e := range trie.Edges(int32(s)) {
			node.Bitmap[e.Char>>6] |= 1 << (uint(e.Char) & 63)
		}
		node.Fail = src.Fail
		node.OutLink = src.OutLink
		node.Out = append([]int32(nil), trie.Out(int32(s))...)
	}
	return b, nil
}

// step performs one goto/fail resolution from state s on input c,
// counting every probe as an automaton step (one memory access each).
func (b *BitmapAC) step(s int32, c byte) int32 {
	for {
		b.Steps++
		node := &b.Nodes[s]
		if node.HasChild(c) {
			return node.FirstChild + node.ChildIndex(c)
		}
		if s == 0 {
			return 0
		}
		s = node.Fail
	}
}

// Scan matches data against the automaton, emitting matches.
func (b *BitmapAC) Scan(data []byte, emit func(ac.Match)) {
	s := int32(0)
	for i, c := range data {
		b.Chars++
		s = b.step(s, c)
		for cur := s; cur != -1; {
			node := &b.Nodes[cur]
			for _, id := range node.Out {
				emit(ac.Match{PatternID: id, End: i + 1})
			}
			cur = node.OutLink
		}
	}
}

// FindAll returns all matches in data.
func (b *BitmapAC) FindAll(data []byte) []ac.Match {
	var out []ac.Match
	b.Scan(data, func(m ac.Match) { out = append(out, m) })
	return out
}

// StepsPerChar reports average automaton steps per scanned character.
func (b *BitmapAC) StepsPerChar() float64 {
	if b.Chars == 0 {
		return 0
	}
	return float64(b.Steps) / float64(b.Chars)
}

// MemoryBytes returns the structure's memory footprint. aligned pads each
// node to a 64-byte line as an ASIC implementation would.
func (b *BitmapAC) MemoryBytes(aligned bool) int {
	per := bitmapNodeRawBytes
	if aligned {
		per = bitmapNodeAlignedBytes
	}
	total := len(b.Nodes) * per
	for i := range b.Nodes {
		total += len(b.Nodes[i].Out) * matchEntryBytes
	}
	return total
}

// UncompressedBytes returns the memory an uncompressed move-table
// Aho-Corasick automaton would need at 4 bytes per transition pointer plus
// a 4-byte match reference per state — the baseline [13] starts from.
func UncompressedBytes(states int) int {
	return states * (256*4 + 4)
}
