package core

// The baked scan kernel: Build bakes every Machine's fast tier — a
// precomputed whole move row for the most-visited states — beside the
// compressed tables, and one hot loop, Machine.scanAppend, runs the two
// tiers. scanReference's loop is the interpreter the baked loop is held to:
// byte-exact equivalent — same state, same history, same match order — on
// every input. Once baked the machine reads no builder structure: the trie
// and its fail-tree analysis are gone.
//
// Layout, mirroring the hardware's fixed-width single-access RAMs:
//
//   - The 256-row lookup table is the Machine's lookupTable, three fixed
//     arrays read in place by both interpreters. d1 is a plain [256]int32
//     with the start-state fallback pre-resolved into the row, so the
//     depth-1 default is one indexed load with no comparison at all. d2
//     packs each row's 4 depth-2 defaults as 4-byte slots, key<<22 |
//     target — the preceding character above the 22-bit target a Pointer
//     names — so a row's four slots are 16 B and the hardware's comparator
//     block is one load, a shift and a compare per slot. d3 is one packed
//     word per character keyed on both history characters at once.
//
//   - The per-byte history pair (h2, h1) fuses into a single register of
//     two 9-bit lanes: hist = h2<<9 | h1. A lane holds 0x000-0x0FF for a
//     real byte and histUnknownLane (0x100) when that position precedes
//     the start of the visible stream, so "unknown never matches" costs
//     nothing — the sentinel simply never equals a key built from real
//     bytes. Both interpreters keep the history in this form.
//
//   - Stored pointers stay where compress put them, in the paper's word:
//     rows is the row index, one 4-byte descriptor per state, and stored
//     the arena of 4-byte Pointers (character and 22-bit target) — one
//     state memory and one index, read by both interpreters. Most rows
//     hold one pointer (6 193 of 7 396 states at 634 strings), and such a
//     row is its descriptor: the Pointer itself, tagged rowInline, so the
//     state's stored-pointer test is the descriptor load and one compare,
//     with no arena word at all. A longer row's descriptor packs its entry
//     count with its arena offset, so the common ≤4-entry row costs one
//     descriptor load plus a short linear scan over adjacent 4-byte
//     entries, where the reference loop binary-searches the row.
//     Promotion to the fast tier (below) rewrites a state's descriptor to
//     its fast-row number and moves the stored-row descriptor to the
//     Machine's displaced table, indexed by that number, which the
//     reference interpreter reads and the kernel never does.
//
//   - The match memory (outputTable) is read by both the same way: a
//     bitset probe, and on a hit the state's complete ID list.
//
//   - Two-tier fast path: the start state, every depth-1 state, and the
//     most popular remaining states (by the same popularity tally that
//     selects default transition pointers) are promoted to fast rows. This
//     is sound because a DTP machine's move row is statically determined
//     for every state — exactly the property verifyTransitions proves — so
//     a fast row is the precomputed result of stored-pointer-then-default
//     resolution. A promoted state's full move row differs from the
//     depth-1 default row d1 on a handful of bytes (3.3 on average at 634
//     strings, 13 at most), so the row is not 256 targets but a 256-bit
//     bitmap of where it differs plus its slice of one shared override
//     array, the bitmap index the Tuck baseline (internal/tuck) uses: a
//     clear bit steps to d1[c], a set bit to the override at the row's
//     base plus the word's byte-wide count of the overrides below it plus a
//     popcount. Most traffic sits in these near-root states, so the common
//     byte is two dependent loads — descriptor, bitmap word — and d1, into
//     a tier small enough (40 B a row) to stay cache-resident.

import (
	"math/bits"
	"slices"
	"unsafe"

	"repro/internal/ac"
)

const (
	histLaneBits    = 9
	histLaneMask    = 1<<histLaneBits - 1     // 0x1FF
	histMask        = 1<<(2*histLaneBits) - 1 // 0x3FFFF
	histUnknownLane = 0x100                   // can never equal a real byte

	// histUnknown is the fused register with both lanes unknown — the value
	// fuseHist(HistNone, HistNone) produces at start-of-packet.
	histUnknown = uint32(histUnknownLane)<<histLaneBits | histUnknownLane

	// Empty d2/d3 slots carry keys no runtime history can produce: a lane
	// is at most histUnknownLane, so 0x1FF (and the all-lanes-0x1FF d3 key)
	// never compares equal.
	emptyD2Key = uint32(histLaneMask) << pointerToBits
	emptyD3Key = uint64(histMask) << 32

	// Row descriptor packing: bit 31 selects the fast tier (low 31 bits =
	// fast row index); otherwise bit 30, rowInline, marks a row of one
	// pointer, and the descriptor is that Pointer (character in bits 22-29,
	// target in bits 0-21); otherwise bits 21-29 hold the row's entry count
	// — nine bits, as a row holds at most one pointer per byte value, 256
	// — and bits 0-20 its offset into the arena.
	rowDense      = uint32(1) << 31
	rowInline     = uint32(1) << 30
	rowCountShift = 21
	rowOffMask    = 1<<rowCountShift - 1

	// defaultDenseStates is the fast-tier budget when Options.denseStates
	// is 0: at 634 strings the start state, all 73 depth-1 states and the
	// 310 most popular deeper ones, ≈20 KB of bitmap rows and overrides.
	defaultDenseStates = 384
)

// fastRow is a promoted state's whole move row, as its difference from the
// depth-1 default row: bit c of bits is set iff the state's move on byte c
// is not d1[c]. The row's overrides sit in Machine.over from base on, in
// byte order, and cum[w] counts those of the words below w: at most 192,
// which a byte holds even for a row overriding all 256 bytes. A set bit's
// override is base plus cum plus the set bits below it in its word. A row
// is 40 B.
type fastRow struct {
	bits [4]uint64
	base uint32
	cum  [4]uint8
}

// move is the row's transition on c.
func (r *fastRow) move(c byte, d1 *[256]int32, over []int32) int32 {
	w, bit := r.bits[c>>6], uint64(1)<<(c&63)
	if w&bit == 0 {
		return d1[c]
	}
	return over[r.base+uint32(r.cum[c>>6])+uint32(bits.OnesCount64(w&(bit-1)))]
}

// fuseHist packs an (h2, h1) history pair, HistNone for an unknown byte,
// into the fused history register.
func fuseHist(h2, h1 int16) uint32 {
	l2, l1 := uint32(histUnknownLane), uint32(histUnknownLane)
	if h2 != HistNone {
		l2 = uint32(h2) & 0xFF
	}
	if h1 != HistNone {
		l1 = uint32(h1) & 0xFF
	}
	return l2<<histLaneBits | l1
}

// fastTier is the fast tier as baked before compress's row index exists:
// the promoted states in order, which compileBackends turns into displaced,
// one fast row each, and the rows' overrides.
type fastTier struct {
	states []uint32
	rows   []fastRow
	over   []int32
}

// bakeFastTier bakes the fast rows of up to denseStates states (see
// pickDense) of t, whose fail-tree analysis is ft, over the depth-1
// default row d1, reading nothing else. Rows are baked in state order, so
// fail parents first: a state's move row is its fail parent's overridden
// by its own edges, so each row is its nearest promoted fail ancestor's —
// already baked, found by a binary search of the promoted states — plus
// the edges of the unpromoted states in between, deepest last. The chain
// ends at the start state at the latest, whose row is d1 itself: its edges
// are the depth-1 states. Every other edge leads to depth ≥ 2, which d1
// never holds, so going down a chain only ever adds overrides or replaces
// them.
func bakeFastTier(t *ac.Trie, ft *failTree, d1 *[256]int32, denseStates int) fastTier {
	// Fast-tier promotion: start state and depth-1 states first, then the
	// most popular remaining states until the budget is spent.
	promoted := pickDense(t, ft, denseStates)
	fastCount := 0
	for _, ok := range promoted {
		if ok {
			fastCount++
		}
	}
	tier := fastTier{states: make([]uint32, 0, fastCount), rows: make([]fastRow, 0, fastCount)}
	for s, ok := range promoted {
		if ok {
			tier.states = append(tier.states, uint32(s))
		}
	}
	over := make([]int32, 0, 4*fastCount)
	var chain []int32
	var scratch [256]int32 // read only where the row's bit is set
	for _, s := range tier.states {
		// chain: s and its fail ancestors, up to the start state or the
		// last one below a promoted ancestor, whose row this one starts as.
		var row fastRow
		chain = chain[:0]
		for a := int32(s); ; {
			chain = append(chain, a)
			if a == ac.Root {
				break
			}
			if a = t.Nodes[a].Fail; promoted[a] {
				i, _ := slices.BinarySearch(tier.states, uint32(a))
				base := &tier.rows[i]
				row.bits = base.bits
				at := base.base
				for w, word := range base.bits {
					for ; word != 0; word &= word - 1 {
						scratch[w<<6|bits.TrailingZeros64(word)] = over[at]
						at++
					}
				}
				break
			}
		}
		for i := len(chain) - 1; i >= 0; i-- {
			for v, end := t.Children(chain[i]); v < end; v++ {
				if c := t.Nodes[v].Char; v != d1[c] {
					row.bits[c>>6] |= 1 << (c & 63)
					scratch[c] = v
				}
			}
		}
		row.base = uint32(len(over))
		for w, word := range row.bits {
			row.cum[w] = uint8(uint32(len(over)) - row.base)
			for ; word != 0; word &= word - 1 {
				over = append(over, scratch[w<<6|bits.TrailingZeros64(word)])
			}
		}
		tier.rows = append(tier.rows, row)
	}
	tier.over = make([]int32, len(over)) // exactly sized: the resident image carries no growth slack
	copy(tier.over, over)
	return tier
}

// pickDense selects the states promoted to the fast tier: the start state,
// then depth-1 states, then everything else, most popular first within a
// tier with ties to the lower state number, until the budget
// — Options.denseStates, defaulting to defaultDenseStates, negative to
// disable the tier — is exhausted. The lower number is the shallower state
// and, at one depth, the lexicographically first path, which depends only
// on the rule set. Machines small enough to fit entirely become a pure flat
// DFA. The selection is a pure function of the trie.
func pickDense(t *ac.Trie, ft *failTree, budget int) []bool {
	n := t.NumStates()
	promoted := make([]bool, n)
	if budget == 0 {
		budget = defaultDenseStates
	}
	if budget < 0 {
		return promoted
	}
	if budget >= n {
		for s := range promoted {
			promoted[s] = true
		}
		return promoted
	}
	promoted[ac.Root] = true
	budget--
	// States are numbered by depth: the start state, the depth-1 tier, the
	// rest.
	tier1 := 1 + int32(t.Nodes[ac.Root].NumEdges)
	for _, tier := range [][2]int32{{1, tier1}, {tier1, int32(n)}} {
		picked := ft.top(tier[0], tier[1], budget)
		for _, s := range picked {
			promoted[s] = true
		}
		budget -= len(picked)
	}
	return promoted
}

// scanAppend is the baked hot loop: one transition per input byte, matches
// appended to out, until data ends. It is the one baked transition:
// verifyProgram proves it on every (state, byte) against the DFA, and the
// lockstep property tests and FuzzBackendEquivalence drive it against the
// reference loop. The prefiltered backend runs its suspect windows through
// it too, exactChunk bytes at a time. The default rule is lookupTable.resolve with
// its four depth-2 compares unrolled: the compiler inlines resolve only as a
// loop, which costs the kernel measurably.
func (m *Machine) scanAppend(state int32, hist uint32, pos int, data []byte, out []ac.Match) (int32, uint32, int, []ac.Match) {
	// Locals let the compiler keep the arena headers in registers across
	// the loop instead of reloading them through m on every byte.
	lut, rows, stored, fast, over, outBits := &m.lut, m.rows, m.stored, m.fast, m.over, m.out.bits
	for _, c := range data {
		ref := rows[state]
		if ref >= rowDense {
			state = fast[ref-rowDense].move(c, &lut.d1, over)
		} else {
			key := pointerKey(c)
			if ref>>pointerToBits == key {
				state = Pointer(ref).To()
				goto stepped
			}
			if ref < rowInline {
				base, end := ref&rowOffMask, ref&rowOffMask+ref>>rowCountShift
				for i := base; i < end; i++ {
					if e := stored[i]; uint32(e)>>pointerToBits == key {
						state = e.To()
						goto stepped
					}
				}
			}
			if e := lut.d3[c]; uint32(e>>32) == hist {
				state = int32(uint32(e))
			} else {
				h1 := hist & histLaneMask
				d2 := &lut.d2[c]
				switch {
				case d2[0]>>pointerToBits == h1:
					state = d2To(d2[0])
				case d2[1]>>pointerToBits == h1:
					state = d2To(d2[1])
				case d2[2]>>pointerToBits == h1:
					state = d2To(d2[2])
				case d2[3]>>pointerToBits == h1:
					state = d2To(d2[3])
				default:
					state = lut.d1[c]
				}
			}
		}
	stepped:
		hist = (hist<<histLaneBits | uint32(c)) & histMask
		pos++
		if outBits[uint32(state)>>6]&(1<<(uint32(state)&63)) != 0 {
			out = m.out.appendTo(state, pos, out)
		}
	}
	return state, hist, pos, out
}

// LayoutStats reports the memory layout of one machine's scan tables, the
// software analogue of the hwsim block-memory fill statistics: every byte
// the baked loop can touch while scanning.
type LayoutStats struct {
	States      int // automaton states
	DenseStates int // states promoted to fast rows
	// StoredEntries counts every pointer the compressed states keep, the
	// one a one-pointer row keeps in its descriptor included.
	StoredEntries int
	DenseBytes    int // fast tier: DenseStates × 40 B of bitmap rows plus 4 B per override
	// StoredBytes is the row index, 4 B a state, plus the stored-pointer
	// arena, 4 B a pointer. A one-pointer row costs only its descriptor;
	// the arena holds every longer row, the promoted states' included, and
	// their displaced descriptors are not counted.
	StoredBytes int
	LookupBytes int // the lookup table: d1/d2/d3 fixed rows
	OutputBytes int // output bitset, rank table and flattened pattern-ID lists
	TotalBytes  int
}

// Layout summarizes the machine's scan tables.
func (m *Machine) Layout() LayoutStats {
	st := LayoutStats{
		States:      len(m.rows),
		DenseStates: len(m.fast),
		DenseBytes:  len(m.fast)*int(unsafe.Sizeof(fastRow{})) + len(m.over)*4,
		StoredBytes: len(m.stored)*int(unsafe.Sizeof(Pointer(0))) + len(m.rows)*4,
		LookupBytes: int(unsafe.Sizeof(m.lut)),
		OutputBytes: len(m.out.bits)*8 + len(m.out.rank)*4 + len(m.out.off)*4 + len(m.out.ids)*4,
	}
	for s, ref := range m.rows {
		if ref < rowDense {
			st.StoredEntries += len(rowOf(m.stored, &m.rows[s]))
		}
	}
	st.TotalBytes = st.DenseBytes + st.StoredBytes + st.LookupBytes + st.OutputBytes
	return st
}
