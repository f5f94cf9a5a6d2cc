package core

// The sparse builder. Build derives everything the dense |states| × 256
// move table would tell it from the trie's edges and its fail tree, without
// ever materializing a move row (ARCHITECTURE.md, "Build pipeline"). Three
// recurrences carry it, each exact:
//
//   - Popularity. Move(s, c) is the goto target of the first state on s's
//     fail chain that has an edge on c. So an edge q —c→ v is taken by every
//     state in q's fail subtree, except those that reach a deeper c-edge
//     first — and the states shadowed by an edge q' —c→ v' are exactly the
//     subtree of q', charged to the nearest c-edge above q', whose target
//     is Fail(v') by the definition of the failure function. Hence every
//     edge adds sub[q] to pop[v] and takes it back from pop[Fail(v)].
//
//   - Stored pointers. On a character that is not one of s's own edges,
//     Move(s, c) = Move(Fail(s), c), and the default rule resolves the same
//     under s's static history as under Fail(s)'s: the histories agree
//     wherever Fail(s)'s is known, and a deeper default matching the extra
//     characters s knows would need a trie node of depth ≥ 2 that is a
//     suffix of s·c — whose parent would be a longer proper suffix of s
//     than Fail(s), or s itself with an edge on c — an argument about each
//     default alone, so it holds under every depth limit. So Stored[s] is
//     Stored[Fail(s)] with s's own edge characters replaced by whichever of
//     s's edges the default rule misses, and the per-depth totals are the
//     per-edge differences weighted by subtree size: one lookup per edge,
//     since an inherited pointer is stored wherever its edge stored it.
//
//   - Fast rows. row(s) is row(Fail(s)) overridden by s's edges, kept as
//     its difference from the depth-1 default row; see bakeFastTier.
//
// The defaults are chosen into, and resolved from, the kernel's own packed
// lookup table (selectDefaults, misses). Build runs ac.Trie.Link, this
// chain and, after compress, the fill of the fold's window filter on the
// caller's goroutine, whose core wrote the trie; only Machine.Verify proves
// the filter. A second goroutine runs beside them the prefilter and its
// proof, which read only what Link leaves alone, then the match memory once
// Link is done, then the fast rows once the fail tree is, which compile
// installs in compress's row index.

import (
	"cmp"
	"fmt"

	"repro/internal/ac"
	"repro/internal/ruleset"
)

// failTree is the builder's transient view of a trie: what the recurrences
// above need and nothing a finished Machine keeps. ac.New numbers states
// breadth-first, so a state's fail parent — strictly shallower — has the
// lower number: every pass below that needs fail parents first is a loop
// over state numbers, and one that needs them last runs it backwards.
type failTree struct {
	// sub[s] is the number of states in s's fail subtree, s included.
	sub []int32
	// pop[s] counts the (state, character) pairs of the full DFA whose move
	// target is s — the tally that ranks default-pointer candidates and
	// fast-tier promotion. original is its sum: the non-root pointers of
	// the uncompressed machine.
	pop      []int64
	original int64
}

// newFailTree analyses t in O(states). Subtree sizes are summed deepest
// state first, each into its fail parent's, which comes earlier. Every
// state but the start state is the target of one edge, from its parent.
func newFailTree(t *ac.Trie) *failTree {
	nodes := t.Nodes
	sub, pop := make([]int32, len(nodes)), make([]int64, len(nodes))
	for s := len(nodes) - 1; s > 0; s-- {
		sub[s]++
		sub[nodes[s].Fail] += sub[s]
	}
	sub[ac.Root]++

	var original int64
	for v := 1; v < len(nodes); v++ {
		w := int64(sub[nodes[v].Parent])
		pop[v] += w
		original += w
		if f := nodes[v].Fail; f != ac.Root {
			pop[f] -= w
			original -= w
		}
	}
	return &failTree{sub: sub, pop: pop, original: original}
}

// rank orders states for promotion: more popular first, ties to the lower
// state number, so every selection is deterministic. The lower number is
// the shallower state and, at one depth, the lexicographically first path,
// which depends only on the rule set, not on the order it was listed in.
func (ft *failTree) rank(a, b int32) int {
	if c := cmp.Compare(ft.pop[b], ft.pop[a]); c != 0 {
		return c
	}
	return cmp.Compare(a, b)
}

// top returns the k best-ranked of the states lo … hi-1, in no particular
// order, without sorting the rest: a k-element heap with the worst kept
// state on top.
func (ft *failTree) top(lo, hi int32, k int) []int32 {
	k = min(k, int(hi-lo))
	if k <= 0 {
		return nil
	}
	h := make([]int32, k)
	for i := range h {
		h[i] = lo + int32(i)
	}
	down := func(i int) {
		for {
			worst := i
			for c := 2*i + 1; c <= 2*i+2 && c < k; c++ {
				if ft.rank(h[c], h[worst]) > 0 {
					worst = c
				}
			}
			if worst == i {
				return
			}
			h[i], h[worst] = h[worst], h[i]
			i = worst
		}
	}
	for i := k/2 - 1; i >= 0; i-- {
		down(i)
	}
	for s := lo + int32(k); s < hi; s++ {
		if ft.rank(s, h[0]) < 0 {
			h[0] = s
			down(0)
		}
	}
	return h
}

// defaults is the lookup table as selectDefaults writes it and compress
// reads it: lut's d1 and d3 words, and len(d2)/256 depth-2 slots a row in
// d2 — in Build, lut's own d2 words, so the compression reads the table the
// kernel ships; a wider scratch only for CompressionStats' ablation.
type defaults struct {
	lut *lookupTable
	d2  []uint32
}

// row is the depth-2 slots of row c.
func (d defaults) row(c byte) []uint32 {
	k := len(d.d2) / len(d.lut.d1)
	return d.d2[int(c)*k:][:k]
}

// selectDefaults chooses the lookup table into d's packed words: every
// depth-1 state as its row's d1 (the start state where there is none), and
// per final character the most popular depth-2 states, as many as a row has
// slots, most popular first, and the most popular depth-3 state. Depths 1,
// 2 and 3 are consecutive ranges of state numbers, so one walk from state 1
// places each state into its row as it comes. It fills st's state,
// original pointer and default counts.
func selectDefaults(t *ac.Trie, ft *failTree, d defaults, st *BuildStats) {
	n, l := int32(t.NumStates()), d.lut
	st.States = int(n)
	st.OriginalPointers = ft.original
	st.OriginalAvg = float64(ft.original) / float64(n)
	for c := range l.d1 {
		l.d1[c], l.d3[c] = ac.Root, emptyD3Key
	}
	for i := range d.d2 {
		d.d2[i] = emptyD2Key
	}
	s := int32(1)
	for ; s < n && t.Nodes[s].Depth == 1; s++ {
		l.d1[t.Nodes[s].Char] = s
		st.D1Count++
	}
	for ; s < n && t.Nodes[s].Depth == 2; s++ {
		nd := &t.Nodes[s]
		if place(ft, d.row(nd.Char), uint32(t.Nodes[nd.Parent].Char)<<pointerToBits|uint32(s), emptyD2Key) {
			st.D2Count++
		}
	}
	for ; s < n && t.Nodes[s].Depth == 3; s++ {
		nd, p1 := &t.Nodes[s], &t.Nodes[t.Nodes[s].Parent]
		key := uint64(t.Nodes[p1.Parent].Char)<<histLaneBits | uint64(p1.Char)
		if place(ft, l.d3[nd.Char:][:1], key<<32|uint64(s), emptyD3Key) {
			st.D3Count++
		}
	}
}

// place puts the packed default e — a depth-2 slot or a depth-3 word, its
// target in the low 22 bits either way — into row, defaults best-ranked
// first, empty slots last, if it ranks among them, each displaced default
// moving one slot down and the last falling off. It reports whether an
// empty slot was taken.
func place[E uint32 | uint64](ft *failTree, row []E, e, empty E) bool {
	to := func(e E) int32 { return int32(uint32(e) & (maxStates - 1)) }
	for j := range row {
		if row[j] == empty || ft.rank(to(e), to(row[j])) < 0 {
			if row[j], e = e, row[j]; e == empty {
				return true
			}
		}
	}
	return false
}

// CompressionStats reports the Table II quantities set compresses to when a
// lookup-table row holds d2 depth-2 defaults instead of the paper's 4: the
// paper's depth-2 ablation (§III.B). It runs Build's selection and
// compression and builds no machine — a row of more than 4 depth-2
// defaults is one no hardware row holds. At d2 = 4 it equals Build's Stats.
func CompressionStats(set *ruleset.Set, d2 int) (BuildStats, error) {
	var st BuildStats
	if d2 < 0 {
		return st, fmt.Errorf("core: %d depth-2 defaults per row", d2)
	}
	trie, err := ac.New(set)
	if err != nil {
		return st, err
	}
	ft := newFailTree(trie)
	d := defaults{new(lookupTable), make([]uint32, 256*d2)}
	selectDefaults(trie, ft, d, &st)
	_, _, err = compress(trie, ft, d, &st)
	return st, err
}

// staticHistory returns the previous-two-character history known statically
// at state s: fully determined for depth ≥ 2, partially for depth 1, empty
// at the start state. The unknown positions are HistNone, which the default
// rule treats as never-matching — sound by the feasibility argument in the
// package comment.
func staticHistory(t *ac.Trie, s int32) (h2, h1 int16) {
	nd := &t.Nodes[s]
	switch {
	case nd.Depth >= 2:
		return int16(t.Nodes[nd.Parent].Char), int16(nd.Char)
	case nd.Depth == 1:
		return HistNone, int16(nd.Char)
	default:
		return HistNone, HistNone
	}
}

// misses evaluates the default rule on c under the fused history hist,
// unknown lanes histUnknownLane, under every depth limit at once: bit d,
// for d = 1…3, is set when the rule consulting depths 1…d only — each
// limit's target the one below it unless a deeper default's key matches —
// does not reach to. The last limit is lookupTable.resolve's rule.
func (d defaults) misses(c byte, hist uint32, to int32) (m uint8) {
	r := d.lut.d1[c]
	if r != to {
		m |= 1 << 1
	}
	for _, e := range d.row(c) {
		if e>>pointerToBits == hist&histLaneMask {
			r = d2To(e)
			break
		}
	}
	if r != to {
		m |= 1 << 2
	}
	if e := d.lut.d3[c]; uint32(e>>32) == hist {
		r = int32(uint32(e))
	}
	if r != to {
		m |= 1 << 3
	}
	return m
}

// fitsWord reports whether a machine of states states whose arena holds
// entries pointers fits the packed state memory: a Pointer names its target
// in 22 bits, and a row descriptor its row's arena offset in 21.
func fitsWord(states int, entries int64) error {
	if states > maxStates {
		return fmt.Errorf("core: the automaton has %d states, a stored pointer addresses %d", states, maxStates)
	}
	if entries > rowOffMask {
		return fmt.Errorf("core: the automaton's arena holds %d pointers, a row descriptor addresses %d", entries, rowOffMask)
	}
	return nil
}

// compress keeps, at every state, only the transitions the default rule of
// d cannot reproduce, and tallies the progressive d1 / d1+d2 / d1+d2+d3
// pointer counts for Table II into st. It returns the state memory — the
// rows of two or more pointers in one arena in state order, exactly sized —
// and its row index, one descriptor per state, a one-pointer row's being
// that pointer. It fails when the machine is beyond what fitsWord allows.
func compress(t *ac.Trie, ft *failTree, d defaults, st *BuildStats) ([]Pointer, []uint32, error) {
	n := t.NumStates()

	// Per edge s —c→ v, under each depth limit d: is the edge stored at s
	// (bit d of miss[v]), and was the pointer it overrides, to Fail(v),
	// stored at Fail(s)? That is Fail(v)'s own parent edge, inherited
	// unchanged, so miss[Fail(v)] answers, set already (the start state's
	// zero entry: never stored). The difference reaches every state below
	// s; the full rule's answers give s's row length from its fail parent's,
	// known already. (The start state is its own fail parent; its length is
	// still zero when it is read.)
	const full = 1 << 3 // the miss bit of the full rule: what the machine stores
	miss := make([]uint8, n)
	rows := make([]uint32, n) // row s's length until the offsets are laid
	var total [4]int64
	maxStored, ones := 0, int64(0)
	for s := range int32(n) {
		nd := &t.Nodes[s]
		w := int64(ft.sub[s])
		length := int(rows[nd.Fail])
		for v, end := t.Children(s); v < end; v++ {
			own := uint8(1<<1 | 1<<2 | full) // no default is as deep as v
			if nd.Depth < 3 {
				own = d.misses(t.Nodes[v].Char, fuseHist(staticHistory(t, s)), v)
			}
			inherited := miss[t.Nodes[v].Fail]
			miss[v] = own
			for d := 1; d <= 3; d++ {
				total[d] += w*int64(own>>d&1) - w*int64(inherited>>d&1)
			}
			length += int(own/full) - int(inherited/full)
		}
		rows[s] = uint32(length)
		maxStored = max(maxStored, length)
		if length == 1 {
			ones++
		}
	}
	// A one-pointer row takes no arena space, so the arena holds the rest.
	if err := fitsWord(n, total[3]-ones); err != nil {
		return nil, nil, err
	}

	// In state order, so fail parents first, lay out the state's row — a
	// one-pointer row in its own descriptor, which the Pointer written
	// there tags rowInline, any other at the arena's next offset — and
	// merge the fail parent's row, laid out already, with the state's own
	// edges into it; both are sorted by character. The start state has no
	// fail parent to inherit from.
	stored := make([]Pointer, total[3]-ones)
	at := uint32(0)
	for s := range int32(n) {
		var row []Pointer
		if length := rows[s]; length == 1 {
			row = inlineRow(&rows[s])
		} else {
			rows[s] = length<<rowCountShift | at
			row = stored[at : at+length : at+length]
			at += length
		}
		var inherited []Pointer
		if s != ac.Root {
			inherited = rowOf(stored, &rows[t.Nodes[s].Fail])
		}
		used := 0
		for v, end := t.Children(s); v < end; v++ {
			c := t.Nodes[v].Char
			for len(inherited) > 0 && inherited[0].Char() < c {
				row[used] = inherited[0]
				used++
				inherited = inherited[1:]
			}
			if len(inherited) > 0 && inherited[0].Char() == c {
				inherited = inherited[1:]
			}
			if miss[v]&full != 0 {
				row[used] = newPointer(c, v)
				used++
			}
		}
		copy(row[used:], inherited)
	}

	fn := float64(n)
	st.StoredAfterD1, st.StoredAfterD12, st.StoredAfterD123 = total[1], total[2], total[3]
	st.AvgAfterD1 = float64(st.StoredAfterD1) / fn
	st.AvgAfterD12 = float64(st.StoredAfterD12) / fn
	st.AvgAfterD123 = float64(st.StoredAfterD123) / fn
	st.StoredPointers = total[3]
	st.AvgStored = float64(st.StoredPointers) / fn
	st.MaxStoredPerState = maxStored
	if st.OriginalPointers > 0 {
		st.Reduction = 1 - float64(st.StoredPointers)/float64(st.OriginalPointers)
	}
	return stored, rows, nil
}
