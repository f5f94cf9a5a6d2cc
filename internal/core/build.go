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
//     than Fail(s), or s itself with an edge on c. So Stored[s] is
//     Stored[Fail(s)] with s's own edge characters replaced by whichever of
//     s's edges the default rule misses, and the per-depth totals are the
//     per-edge differences weighted by subtree size.
//
//   - Fast rows. row(s) is row(Fail(s)) overridden by s's edges, kept as
//     its difference from the depth-1 default row; see compile.

import (
	"cmp"
	"fmt"
	"slices"

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

// newFailTree analyses t in O(states + edges). Subtree sizes are summed
// deepest state first, each into its fail parent's, which comes earlier.
func newFailTree(t *ac.Trie) *failTree {
	nodes := t.Nodes
	n := len(nodes)
	ft := &failTree{sub: make([]int32, n), pop: make([]int64, n)}
	for s := n - 1; s > 0; s-- {
		ft.sub[s]++
		ft.sub[nodes[s].Fail] += ft.sub[s]
	}
	ft.sub[ac.Root]++

	for q := range nodes {
		w := int64(ft.sub[q])
		for _, e := range t.Edges(int32(q)) {
			ft.pop[e.To] += w
			ft.original += w
			if f := nodes[e.To].Fail; f != ac.Root {
				ft.pop[f] -= w
				ft.original -= w
			}
		}
	}
	return ft
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

// selectDefaults chooses the lookup table, row by row: every depth-1 state,
// and per final character the d2 most popular depth-2 states and the most
// popular depth-3 state, most popular first. It fills st's state, original
// pointer and default counts. The rows are build scaffolding: Build encodes
// them into the machine's lookupTable and lets them go.
func selectDefaults(t *ac.Trie, ft *failTree, d2 int, st *BuildStats) *[256]LookupRow {
	st.States = t.NumStates()
	st.OriginalPointers = ft.original
	st.OriginalAvg = float64(ft.original) / float64(st.States)

	rows := new([256]LookupRow)
	for c := range rows {
		rows[c].D1 = ac.None
	}
	var byDepth [4][]int32
	for s := int32(1); s < int32(st.States) && t.Nodes[s].Depth <= 3; s++ {
		d := t.Nodes[s].Depth
		byDepth[d] = append(byDepth[d], s)
	}
	for _, s := range byDepth[1] {
		rows[t.Nodes[s].Char].D1 = s
	}
	st.D1Count = len(byDepth[1])

	for _, s := range ft.rowWinners(t, byDepth[2], d2) {
		nd := &t.Nodes[s]
		row := &rows[nd.Char]
		row.D2 = append(row.D2, D2Entry{Prev: t.Nodes[nd.Parent].Char, State: s})
		st.D2Count++
	}
	for _, s := range ft.rowWinners(t, byDepth[3], 1) {
		nd := &t.Nodes[s]
		p1 := &t.Nodes[nd.Parent]
		rows[nd.Char].D3 = []D3Entry{{Prev2: t.Nodes[p1.Parent].Char, Prev1: p1.Char, State: s}}
		st.D3Count++
	}
	return rows
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
	_, _, err = compress(trie, ft, selectDefaults(trie, ft, d2, &st), &st)
	return st, err
}

// rowWinners sorts cands — states of one depth — by lookup-table row, which
// is their final character, best-ranked first within a row, and returns the
// first k of every row in that order.
func (ft *failTree) rowWinners(t *ac.Trie, cands []int32, k int) []int32 {
	slices.SortFunc(cands, func(a, b int32) int {
		if c := cmp.Compare(t.Nodes[a].Char, t.Nodes[b].Char); c != 0 {
			return c
		}
		return ft.rank(a, b)
	})
	var winners []int32
	row, taken := -1, 0
	for _, s := range cands {
		if c := int(t.Nodes[s].Char); c != row {
			row, taken = c, 0
		}
		if taken < k {
			winners = append(winners, s)
			taken++
		}
	}
	return winners
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

// resolveDepths evaluates the row's default rule under history (h2, h1),
// HistNone where unknown, under every depth limit at once: r[d] is the
// target using depths 1…d only, each limit's answer the one below it
// unless a deeper default matches, the start state if none does.
func (row *LookupRow) resolveDepths(h2, h1 int16) (r [4]int32) {
	r[1] = ac.Root
	if row.D1 != ac.None {
		r[1] = row.D1
	}
	r[2] = r[1]
	if h1 != HistNone {
		for _, e := range row.D2 {
			if int16(e.Prev) == h1 {
				r[2] = e.State
				break
			}
		}
	}
	r[3] = r[2]
	if h2 != HistNone && h1 != HistNone {
		for _, e := range row.D3 {
			if int16(e.Prev2) == h2 && int16(e.Prev1) == h1 {
				r[3] = e.State
				break
			}
		}
	}
	return r
}

// fitsWord reports whether a machine of states states storing entries
// pointers fits the packed state memory: a Pointer names its target in 24
// bits, and a row descriptor its row's offset in 22.
func fitsWord(states int, entries int64) error {
	if states > maxStates {
		return fmt.Errorf("core: the automaton has %d states, a stored pointer addresses %d", states, maxStates)
	}
	if entries > rowOffMask {
		return fmt.Errorf("core: the automaton stores %d pointers, a row descriptor addresses %d", entries, rowOffMask)
	}
	return nil
}

// compress keeps, at every state, only the transitions the default rule of
// defaults cannot reproduce, and tallies the progressive d1 / d1+d2 /
// d1+d2+d3 pointer counts for Table II into st. It returns the state
// memory — the rows in one arena in state order, sized by the tally — and
// its row index, one descriptor per state. It fails when the machine is
// beyond what fitsWord allows.
func compress(t *ac.Trie, ft *failTree, defaults *[256]LookupRow, st *BuildStats) ([]Pointer, []uint32, error) {
	n := t.NumStates()

	// Per edge s —c→ v: under each depth limit, is the edge stored at s, and
	// was the pointer it overrides — Move(Fail(s), c), which is Fail(v) —
	// stored at Fail(s)? The difference reaches every state below s.
	// keep[v] records the first answer under all three depths, which is
	// what the machine stores, and the same two answers give the length of
	// s's row from its fail parent's, which — a lower state number — is
	// already known. (The start state is its own fail parent; its length is
	// still zero when it is read.)
	keep := make([]bool, n)
	rows := make([]uint32, n) // row s's length until the offsets are laid
	var total [4]int64
	maxStored := 0
	for s := range int32(n) {
		nd := &t.Nodes[s]
		h2, h1 := staticHistory(t, s)
		fh2, fh1 := staticHistory(t, nd.Fail)
		w := int64(ft.sub[s])
		length := int(rows[nd.Fail])
		for _, e := range t.Edges(s) {
			over := t.Nodes[e.To].Fail
			own := defaults[e.Char].resolveDepths(h2, h1)
			var inherited [4]int32
			if over != ac.Root {
				inherited = defaults[e.Char].resolveDepths(fh2, fh1)
			}
			for d := 1; d <= 3; d++ {
				if own[d] != e.To {
					total[d] += w
				}
				if over != ac.Root && inherited[d] != over {
					total[d] -= w
				}
			}
			if keep[e.To] = own[3] != e.To; keep[e.To] {
				length++
			}
			if over != ac.Root && inherited[3] != over {
				length--
			}
		}
		rows[s] = uint32(length)
		maxStored = max(maxStored, length)
	}
	if err := fitsWord(n, total[3]); err != nil {
		return nil, nil, err
	}
	at := uint32(0)
	for s, length := range rows {
		rows[s] = length<<rowCountShift | at
		at += length
	}

	// In state order, so fail parents first, merge the fail parent's row
	// with the state's own edges; both are sorted by character. The start
	// state has no fail parent to inherit from.
	stored := make([]Pointer, total[3])
	for s := range int32(n) {
		var inherited []Pointer
		if s != ac.Root {
			inherited = rowOf(stored, rows[t.Nodes[s].Fail])
		}
		row, used := rowOf(stored, rows[s]), 0
		for _, e := range t.Edges(s) {
			for len(inherited) > 0 && inherited[0].Char() < e.Char {
				row[used] = inherited[0]
				used++
				inherited = inherited[1:]
			}
			if len(inherited) > 0 && inherited[0].Char() == e.Char {
				inherited = inherited[1:]
			}
			if keep[e.To] {
				row[used] = newPointer(e.Char, e.To)
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
