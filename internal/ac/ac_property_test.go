package ac

import (
	"slices"
	"testing"
	"unsafe"

	"repro/internal/rng"
	"repro/internal/ruleset"
)

// pathOf reconstructs the byte string spelled by the path from the root to
// state s.
func pathOf(tr *Trie, s int32) []byte {
	var rev []byte
	for cur := s; cur != Root; cur = tr.Nodes[cur].Parent {
		rev = append(rev, tr.Nodes[cur].Char)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// stateOf returns the trie state spelling exactly s, or None.
func stateOf(tr *Trie, s []byte) int32 {
	cur := Root
	for _, c := range s {
		cur = tr.edgeTo(cur, c)
		if cur == None {
			return None
		}
	}
	return cur
}

// smallTrie builds a trie over a dense random pattern set.
func smallTrie(t testing.TB, seed int64, npat, alpha, maxLen int) *Trie {
	tr, err := New(smallSet(seed, npat, alpha, maxLen))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// smallSet is a dense random set of npat patterns of 1…maxLen bytes over an
// alphabet of alpha letters.
func smallSet(seed int64, npat, alpha, maxLen int) *ruleset.Set {
	src := rng.New(seed)
	set := &ruleset.Set{}
	seen := map[string]bool{}
	for len(set.Patterns) < npat {
		l := 1 + src.Intn(maxLen)
		d := make([]byte, l)
		for i := range d {
			d[i] = byte('a' + src.Intn(alpha))
		}
		if seen[string(d)] {
			continue
		}
		seen[string(d)] = true
		set.Patterns = append(set.Patterns, ruleset.Pattern{ID: len(set.Patterns), Data: d})
	}
	return set
}

// TestFailIsLongestProperSuffix checks the defining property of the
// Aho-Corasick failure function: fail(s) spells the longest proper suffix
// of path(s) that is itself a trie path.
func TestFailIsLongestProperSuffix(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		tr := smallTrie(t, seed, 15, 3, 6)
		for s := int32(1); s < int32(tr.NumStates()); s++ {
			path := pathOf(tr, s)
			want := Root
			for cut := 1; cut < len(path); cut++ {
				if cand := stateOf(tr, path[cut:]); cand != None {
					want = cand
					break // longest first: cut from the left
				}
			}
			if got := tr.Nodes[s].Fail; got != want {
				t.Fatalf("seed %d state %d (%q): fail = %d, want %d",
					seed, s, path, got, want)
			}
		}
	}
}

// TestMoveIsLongestSuffix checks the move function's defining property:
// Move(s, c) spells the longest suffix of path(s)+c that is a trie path.
func TestMoveIsLongestSuffix(t *testing.T) {
	for seed := int64(10); seed < 14; seed++ {
		tr := smallTrie(t, seed, 12, 3, 5)
		for s := int32(0); s < int32(tr.NumStates()); s++ {
			path := pathOf(tr, s)
			for ci := 0; ci < 3; ci++ {
				c := byte('a' + ci)
				full := append(append([]byte{}, path...), c)
				want := Root
				for cut := 0; cut < len(full); cut++ {
					if cand := stateOf(tr, full[cut:]); cand != None {
						want = cand
						break
					}
				}
				if got := tr.Move(s, c); got != want {
					t.Fatalf("seed %d: Move(%q, %q) = %d, want %d", seed, path, c, got, want)
				}
			}
		}
	}
}

// TestOutLinkIsNearestOutputAncestor checks OutLink against a brute-force
// fail-chain walk.
func TestOutLinkIsNearestOutputAncestor(t *testing.T) {
	tr := smallTrie(t, 20, 20, 3, 6)
	for s := int32(1); s < int32(tr.NumStates()); s++ {
		want := None
		for cur := tr.Nodes[s].Fail; ; cur = tr.Nodes[cur].Fail {
			if len(tr.Out(cur)) > 0 {
				want = cur
				break
			}
			if cur == Root {
				break
			}
		}
		if got := tr.Nodes[s].OutLink; got != want {
			t.Fatalf("state %d: outlink %d, want %d", s, got, want)
		}
	}
}

// TestEmitOutputsExactlySuffixPatterns: the outputs of state s are exactly
// the patterns that are suffixes of path(s).
func TestEmitOutputsExactlySuffixPatterns(t *testing.T) {
	src := rng.New(31)
	set := &ruleset.Set{}
	seen := map[string]bool{}
	for len(set.Patterns) < 12 {
		l := 1 + src.Intn(5)
		d := make([]byte, l)
		for i := range d {
			d[i] = byte('x' + src.Intn(2))
		}
		if seen[string(d)] {
			continue
		}
		seen[string(d)] = true
		set.Patterns = append(set.Patterns, ruleset.Pattern{ID: len(set.Patterns), Data: d})
	}
	tr, err := New(set)
	if err != nil {
		t.Fatal(err)
	}
	isSuffix := func(pat, path []byte) bool {
		if len(pat) > len(path) {
			return false
		}
		tail := path[len(path)-len(pat):]
		for i := range pat {
			if tail[i] != pat[i] {
				return false
			}
		}
		return true
	}
	for s := int32(0); s < int32(tr.NumStates()); s++ {
		path := pathOf(tr, s)
		got := map[int32]bool{}
		tr.EmitOutputs(s, 0, func(m Match) {
			if got[m.PatternID] {
				t.Fatalf("state %d emits pattern %d twice", s, m.PatternID)
			}
			got[m.PatternID] = true
		})
		for _, p := range set.Patterns {
			want := isSuffix(p.Data, path)
			if got[int32(p.ID)] != want {
				t.Fatalf("state %d (%q): pattern %d (%q) emitted=%v want %v",
					s, path, p.ID, p.Data, got[int32(p.ID)], want)
			}
		}
	}
}

// TestArenaLayout: every state's edges are strictly sorted by character and
// lead to its own children, depth never decreases as the state number
// increases (breadth-first numbering, so the last state is a deepest one and
// each depth is one range), the two arenas are exactly the states' slices
// back to back in state order with nothing between or after them, and a
// node is no larger than the 32 bytes a build's peak heap is sized by.
func TestArenaLayout(t *testing.T) {
	if got := unsafe.Sizeof(Node{}); got > 32 {
		t.Fatalf("Node is %d bytes, want at most 32", got)
	}
	for seed := int64(0); seed < 20; seed++ {
		tr := smallTrie(t, seed, 40, 3, 7)
		var edges, outs uint32
		for s := int32(0); s < int32(tr.NumStates()); s++ {
			nd := &tr.Nodes[s]
			if s > 0 && nd.Depth < tr.Nodes[s-1].Depth {
				t.Fatalf("seed %d: state %d has depth %d, state %d before it %d", seed, s, nd.Depth, s-1, tr.Nodes[s-1].Depth)
			}
			// The children of the states before s are states 1 … edges.
			if nd.first != edges+1 || nd.outOff != outs {
				t.Fatalf("seed %d: state %d's children and outputs start at (%d, %d), the states before it end at (%d, %d)",
					seed, s, nd.first, nd.outOff, edges+1, outs)
			}
			lo, hi := tr.Children(s)
			for v := lo; v < hi; v++ {
				if v > lo && tr.Nodes[v-1].Char >= tr.Nodes[v].Char {
					t.Fatalf("seed %d: state %d's children %d and %d are not in character order", seed, s, v-1, v)
				}
				if tr.Nodes[v].Parent != s {
					t.Fatalf("seed %d: state %d's child %d is a child of %d", seed, s, v, tr.Nodes[v].Parent)
				}
			}
			edges += uint32(hi - lo)
			outs += uint32(len(tr.Out(s)))
		}
		if int(outs) != len(tr.outs) || len(tr.outs) != cap(tr.outs) {
			t.Fatalf("seed %d: the arena holds %d/%d outputs, the states account for %d",
				seed, len(tr.outs), cap(tr.outs), outs)
		}
		if edges != uint32(tr.NumStates()-1) {
			t.Fatalf("seed %d: %d edges for %d states", seed, edges, tr.NumStates())
		}
	}
}

// TestLinkWritesOnlyLinks: Layout leaves every fail link at the start state
// and no output link, and Link then writes those two fields and nothing
// else — no other node field and not the output arena. Package core relies on it
// to read the rest of a laid-out trie on a second goroutine while Link
// runs.
func TestLinkWritesOnlyLinks(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		tr, err := Layout(smallSet(seed, 40, 3, 7))
		if err != nil {
			t.Fatal(err)
		}
		laid, outs := slices.Clone(tr.Nodes), slices.Clone(tr.outs)
		for s, nd := range laid {
			if nd.Fail != Root || nd.OutLink != None {
				t.Fatalf("seed %d: laid-out state %d has fail %d and output link %d", seed, s, nd.Fail, nd.OutLink)
			}
		}
		tr.Link()
		linked := 0
		for s, nd := range tr.Nodes {
			if nd.Fail != Root || nd.OutLink != None {
				linked++
			}
			nd.Fail, nd.OutLink = Root, None
			if nd != laid[s] {
				t.Fatalf("seed %d: Link changed state %d from %+v to %+v beyond its links", seed, s, laid[s], tr.Nodes[s])
			}
		}
		if linked == 0 {
			t.Fatalf("seed %d: Link linked no state", seed)
		}
		if !slices.Equal(tr.outs, outs) {
			t.Fatalf("seed %d: Link changed the output arena", seed)
		}
	}
}
