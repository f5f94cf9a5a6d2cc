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
)

// failTree is the builder's transient view of a trie: what the recurrences
// above need and nothing a finished Machine keeps.
type failTree struct {
	// order lists every state by increasing depth, the start state first:
	// a state's fail parent is strictly shallower, so it comes earlier.
	order []int32
	// sub[s] is the number of states in s's fail subtree, s included.
	sub []int32
	// pop[s] counts the (state, character) pairs of the full DFA whose move
	// target is s — the tally that ranks default-pointer candidates and
	// fast-tier promotion. original is its sum: the non-root pointers of
	// the uncompressed machine.
	pop      []int64
	original int64
}

// newFailTree analyses t in O(states + edges).
func newFailTree(t *ac.Trie) *failTree {
	nodes := t.Nodes
	n := len(nodes)
	ft := &failTree{order: make([]int32, n), sub: make([]int32, n), pop: make([]int64, n)}

	// Counting sort by depth. Not the identity: ac.New numbers states in
	// insertion order — a parent before its children, one pattern's path
	// before the next's — so a fail parent is shallower but may carry the
	// higher number.
	start := make([]int32, n+1)
	for i := range nodes {
		start[nodes[i].Depth+1]++
	}
	for d := 1; d <= n; d++ {
		start[d] += start[d-1]
	}
	for i := range nodes {
		d := nodes[i].Depth
		ft.order[start[d]] = int32(i)
		start[d]++
	}

	for i := n - 1; i > 0; i-- {
		s := ft.order[i]
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
// state number, so every selection is deterministic.
func (ft *failTree) rank(a, b int32) int {
	if c := cmp.Compare(ft.pop[b], ft.pop[a]); c != 0 {
		return c
	}
	return cmp.Compare(a, b)
}

// top returns the k best-ranked of cands, in no particular order, without
// sorting the rest: a k-element heap with the worst kept state on top.
func (ft *failTree) top(cands []int32, k int) []int32 {
	if k >= len(cands) {
		return cands
	}
	if k <= 0 {
		return nil
	}
	h := slices.Clone(cands[:k])
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
	for _, s := range cands[k:] {
		if ft.rank(s, h[0]) < 0 {
			h[0] = s
			down(0)
		}
	}
	return h
}

// selectDefaults fills the lookup table: every depth-1 state, and per final
// character the D2PerChar most popular depth-2 and D3PerChar most popular
// depth-3 states, most popular first.
func (m *Machine) selectDefaults(t *ac.Trie, ft *failTree) {
	m.Stats.States = t.NumStates()
	m.Stats.OriginalPointers = ft.original
	m.Stats.OriginalAvg = float64(ft.original) / float64(m.Stats.States)

	for c := range m.Defaults.D1 {
		m.Defaults.D1[c] = ac.None
	}
	var byDepth [4][]int32
	for _, s := range ft.order[1:] {
		d := t.Nodes[s].Depth
		if d > 3 {
			break
		}
		byDepth[d] = append(byDepth[d], s)
	}
	for _, s := range byDepth[1] {
		m.Defaults.D1[t.Nodes[s].Char] = s
	}
	m.Stats.D1Count = len(byDepth[1])

	for _, s := range ft.rowWinners(t, byDepth[2], m.Opts.D2PerChar) {
		nd := &t.Nodes[s]
		m.Defaults.D2[nd.Char] = append(m.Defaults.D2[nd.Char], D2Entry{Prev: t.Nodes[nd.Parent].Char, State: s})
		m.Stats.D2Count++
	}
	for _, s := range ft.rowWinners(t, byDepth[3], m.Opts.D3PerChar) {
		nd := &t.Nodes[s]
		p1 := &t.Nodes[nd.Parent]
		m.Defaults.D3[nd.Char] = append(m.Defaults.D3[nd.Char], D3Entry{
			Prev2: t.Nodes[p1.Parent].Char,
			Prev1: p1.Char,
			State: s,
		})
		m.Stats.D3Count++
	}
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

// resolveDepths evaluates the default rule for c under history (h2, h1)
// under every depth limit at once: r[d] is Resolve(c, h2, h1, d) for d = 1,
// 2 and 3, each limit's answer the one below it unless a deeper default
// matches.
func (d *Defaults) resolveDepths(c byte, h2, h1 int16) (r [4]int32) {
	r[1] = ac.Root
	if s := d.D1[c]; s != ac.None {
		r[1] = s
	}
	r[2] = r[1]
	if h1 != HistNone {
		for _, e := range d.D2[c] {
			if int16(e.Prev) == h1 {
				r[2] = e.State
				break
			}
		}
	}
	r[3] = r[2]
	if h2 != HistNone && h1 != HistNone {
		for _, e := range d.D3[c] {
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

// compress keeps, at every state, only the transitions the default rule
// cannot reproduce, and tallies the progressive d1 / d1+d2 / d1+d2+d3
// pointer counts for Table II. The rows go into one arena in state order,
// sized by the tally, and the row index gets one descriptor per state. It
// fails when the machine is beyond what fitsWord allows.
func (m *Machine) compress(t *ac.Trie, ft *failTree) error {
	n := t.NumStates()

	// Per edge s —c→ v: under each depth limit, is the edge stored at s, and
	// was the pointer it overrides — Move(Fail(s), c), which is Fail(v) —
	// stored at Fail(s)? The difference reaches every state below s.
	// keep[v] records the first answer under the configured depth, and the
	// same two answers give the length of s's row from its fail parent's,
	// which — shallow states first — is already known. (The start state is
	// its own fail parent; its length is still zero when it is read.)
	keep := make([]bool, n)
	rows := make([]uint32, n) // row s's length until the offsets are laid
	var total [4]int64
	maxStored := 0
	for _, s := range ft.order {
		nd := &t.Nodes[s]
		h2, h1 := staticHistory(t, s)
		fh2, fh1 := staticHistory(t, nd.Fail)
		w := int64(ft.sub[s])
		length := int(rows[nd.Fail])
		for _, e := range t.Edges(s) {
			over := t.Nodes[e.To].Fail
			own := m.Defaults.resolveDepths(e.Char, h2, h1)
			var inherited [4]int32
			if over != ac.Root {
				inherited = m.Defaults.resolveDepths(e.Char, fh2, fh1)
			}
			for d := 1; d <= 3; d++ {
				stored := own[d] != e.To
				overStored := over != ac.Root && inherited[d] != over
				if stored {
					total[d] += w
				}
				if overStored {
					total[d] -= w
				}
				if d == m.Opts.MaxDepth {
					keep[e.To] = stored
					if stored {
						length++
					}
					if overStored {
						length--
					}
				}
			}
		}
		rows[s] = uint32(length)
		maxStored = max(maxStored, length)
	}
	if err := fitsWord(n, total[m.Opts.MaxDepth]); err != nil {
		return err
	}
	at := uint32(0)
	for s, length := range rows {
		rows[s] = length<<rowCountShift | at
		at += length
	}

	// Shallow states first, merge the fail parent's row with the state's
	// own edges; both are sorted by character. The start state has no fail
	// parent to inherit from.
	m.stored, m.rows = make([]Pointer, total[m.Opts.MaxDepth]), rows
	for _, s := range ft.order {
		var inherited []Pointer
		if s != ac.Root {
			inherited = m.StoredRow(t.Nodes[s].Fail)
		}
		row, used := m.StoredRow(s), 0
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
	st := &m.Stats
	st.StoredAfterD1, st.StoredAfterD12, st.StoredAfterD123 = total[1], total[2], total[3]
	st.AvgAfterD1 = float64(st.StoredAfterD1) / fn
	st.AvgAfterD12 = float64(st.StoredAfterD12) / fn
	st.AvgAfterD123 = float64(st.StoredAfterD123) / fn
	st.StoredPointers = total[m.Opts.MaxDepth]
	st.AvgStored = float64(st.StoredPointers) / fn
	st.MaxStoredPerState = maxStored
	if st.OriginalPointers > 0 {
		st.Reduction = 1 - float64(st.StoredPointers)/float64(st.OriginalPointers)
	}
	return nil
}
