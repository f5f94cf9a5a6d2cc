package core

// The baked scan kernel: Build flattens a DTP Machine into a Program, a
// cache-line-friendly runtime representation that the Scanner hot loop
// executes. The Machine remains the reference semantics (Machine.Next is
// the oracle the Program is verified against); the Program must stay
// byte-exact equivalent — same state, same history, same match order — on
// every input. Once compiled it reads no builder structure: the trie and
// its fail-tree analysis are gone.
//
// Layout, mirroring the hardware's fixed-width single-access RAMs:
//
//   - The 256-row lookup table is the Machine's lookupTable, three fixed
//     arrays read in place by both interpreters. d1 is a plain [256]int32
//     with the start-state fallback pre-resolved into the row, so the
//     depth-1 default is one indexed load with no comparison at all. d2
//     packs each row's 4 depth-2 defaults as uint64 words,
//     preceding-character key in the high half and target state in the low
//     half, so the hardware's comparator block is one load plus one
//     32-bit compare per slot. d3 is one packed word per character keyed
//     on both history characters at once.
//
//   - The per-byte history pair (h2, h1) fuses into a single register of
//     two 9-bit lanes: hist = h2<<9 | h1. A lane holds 0x000-0x0FF for a
//     real byte and histUnknownLane (0x100) when that position precedes
//     the start of the visible stream, so "unknown never matches" costs
//     nothing — the sentinel simply never equals a key built from real
//     bytes. Both interpreters keep the history in this form.
//
//   - Stored pointers stay where compress put them, in the paper's word:
//     stored is the Machine's own arena of 4-byte Pointers (character and
//     24-bit target), and rows is the Machine's own row index — one state
//     memory and one index, shared, not copied, read by two interpreters.
//     rows[s] packs the entry count inline with the offset, so the common
//     ≤4-entry row costs one descriptor load plus a short linear scan over
//     adjacent 4-byte entries, where Machine.Next binary-searches the row.
//     Promotion to the fast tier (below) rewrites a state's descriptor to
//     its fast-row number and moves the stored-row descriptor to the
//     Machine's displaced table, indexed by that number, which the
//     reference interpreter reads and the kernel never does.
//
//   - The match memory is the Machine's too (outputTable), shared the same
//     way: a bitset probe, and on a hit the state's complete ID list.
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
//     clear bit steps to d1[c], a set bit to the override at the word's
//     rank plus a popcount. Most traffic sits in these near-root states,
//     so the common byte is two dependent loads — descriptor, bitmap word —
//     and d1, into a tier small enough (48 B a row) to stay cache-resident.

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
	emptyD2Key = uint64(histLaneMask) << 32
	emptyD3Key = uint64(histMask) << 32

	// Row descriptor packing: bit 31 selects the fast tier (low 31 bits =
	// fast row index); otherwise bits 22-30 hold the stored-entry count —
	// nine bits, as a row holds at most one pointer per byte value, 256 —
	// and bits 0-21 the offset into the arena.
	rowDense      = uint32(1) << 31
	rowCountShift = 22
	rowOffMask    = 1<<rowCountShift - 1

	// DefaultDenseStates is the fast-tier budget when Options.DenseStates
	// is 0: at 634 strings the start state, all 73 depth-1 states and the
	// 310 most popular deeper ones, ≈23 KB of bitmap rows and overrides.
	DefaultDenseStates = 384
)

// Program is the compiled, flat form of a Machine. It is immutable after
// Build and safe for concurrent use by any number of Scanners.
type Program struct {
	lut    *lookupTable // the Machine's lookup table
	rows   []uint32     // the Machine's row index: fast row index or count+offset
	stored []Pointer    // the Machine's arena, rows sorted by char
	fast   []fastRow    // one per promoted state
	over   []int32      // every fast row's overrides of d1, back to back
	out    *outputTable // the Machine's match memory
}

// fastRow is a promoted state's whole move row, as its difference from the
// depth-1 default row: bit c of bits is set iff the state's move on byte c
// is not d1[c], and rank[w] is the index in Program.over of the override
// for the lowest set bit of word w — the row's overrides sit there in byte
// order, so a set bit's override is rank plus the set bits below it.
type fastRow struct {
	bits [4]uint64
	rank [4]uint32
}

// move is the row's transition on c.
func (r *fastRow) move(c byte, d1 *[256]int32, over []int32) int32 {
	w, bit := r.bits[c>>6], uint64(1)<<(c&63)
	if w&bit == 0 {
		return d1[c]
	}
	return over[r.rank[c>>6]+uint32(bits.OnesCount64(w&(bit-1)))]
}

// fuseHist packs the scanner's (h2, h1) register pair into the kernel's
// fused history register.
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

// splitHist is the inverse of fuseHist, run once per ScanAppend call to
// restore the scanner-visible registers.
func splitHist(hist uint32) (h2, h1 int16) {
	h2, h1 = HistNone, HistNone
	if l := hist >> histLaneBits & histLaneMask; l != histUnknownLane {
		h2 = int16(l)
	}
	if l := hist & histLaneMask; l != histUnknownLane {
		h1 = int16(l)
	}
	return h2, h1
}

// fastTier is the fast tier as baked before compress's row index exists:
// the promoted states in order, which compile turns into displaced, one
// fast row each, and the rows' overrides.
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
				at := base.rank[0]
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
			for _, e := range t.Edges(chain[i]) {
				if e.To != d1[e.Char] {
					row.bits[e.Char>>6] |= 1 << (e.Char & 63)
					scratch[e.Char] = e.To
				}
			}
		}
		for w, word := range row.bits {
			row.rank[w] = uint32(len(over))
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

// compile bakes m into a Program over m's own lookup table, arena, row
// index and match memory, installing tier in the row index: a promoted
// state's descriptor becomes its fast-row number, and the one it held
// takes the state's place in tier.states, which becomes displaced. Build
// bakes every machine unless Options.Backend pins BackendReference.
func compile(m *Machine, tier fastTier) *Program {
	for i, s := range tier.states {
		tier.states[i] = m.rows[s]
		m.rows[s] = rowDense | uint32(i)
	}
	m.displaced = tier.states
	return &Program{lut: &m.lut, rows: m.rows, stored: m.stored, fast: tier.rows, over: tier.over, out: &m.out}
}

// pickDense selects the states promoted to the fast tier: the start state,
// then depth-1 states, then everything else, most popular first within a
// tier with ties to the lower state number, until the budget
// — Options.DenseStates, defaulting to DefaultDenseStates, negative to
// disable the tier — is exhausted. The lower number is the shallower state
// and, at one depth, the lexicographically first path, which depends only
// on the rule set. Machines small enough to fit entirely become a pure flat
// DFA. The selection is a pure function of the trie.
func pickDense(t *ac.Trie, ft *failTree, budget int) []bool {
	n := t.NumStates()
	promoted := make([]bool, n)
	if budget == 0 {
		budget = DefaultDenseStates
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
// appended to out. It must stay byte-exact equivalent to Machine.Next plus
// the history/position bookkeeping of Scanner.Step; the property tests and
// FuzzBakedEquivalence enforce this against both the reference path and
// the uncompressed-DFA oracle. The default rule is lookupTable.resolve
// with its four depth-2 compares unrolled, here and in the two loops
// below: the compiler inlines resolve only as a loop, which costs the
// kernel measurably.
func (p *Program) scanAppend(state int32, hist uint32, pos int, data []byte, out []ac.Match) (int32, uint32, int, []ac.Match) {
	// Locals let the compiler keep the arena headers in registers across
	// the loop instead of reloading them through p on every byte.
	lut, rows, fast, over, outBits := p.lut, p.rows, p.fast, p.over, p.out.bits
	for _, c := range data {
		ref := rows[state]
		if ref >= rowDense {
			state = fast[ref-rowDense].move(c, &lut.d1, over)
		} else {
			if cnt := ref >> rowCountShift; cnt != 0 {
				base := ref & rowOffMask
				for i := uint32(0); i < cnt; i++ {
					if e := p.stored[base+i]; e.Char() == c {
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
				case uint32(d2[0]>>32) == h1:
					state = int32(uint32(d2[0]))
				case uint32(d2[1]>>32) == h1:
					state = int32(uint32(d2[1]))
				case uint32(d2[2]>>32) == h1:
					state = int32(uint32(d2[2]))
				case uint32(d2[3]>>32) == h1:
					state = int32(uint32(d2[3]))
				default:
					state = lut.d1[c]
				}
			}
		}
	stepped:
		hist = (hist<<histLaneBits | uint32(c)) & histMask
		pos++
		if outBits[uint32(state)>>6]&(1<<(uint32(state)&63)) != 0 {
			out = p.out.appendTo(state, pos, out)
		}
	}
	return state, hist, pos, out
}

// step executes one baked transition — the single-byte form of the
// scanAppend loop, the Step of the baked and prefiltered backends alike. It
// takes the transition and shifts the fused history but does not probe
// outputs; like Scanner.Step it is the pure register-machine view. It must stay byte-exact equivalent to
// Machine.Next; the lockstep property tests drive it against the reference
// path after every operation.
func (p *Program) step(state int32, hist uint32, c byte) (int32, uint32) {
	ref := p.rows[state]
	if ref >= rowDense {
		state = p.fast[ref-rowDense].move(c, &p.lut.d1, p.over)
	} else {
		if cnt := ref >> rowCountShift; cnt != 0 {
			base := ref & rowOffMask
			for i := uint32(0); i < cnt; i++ {
				if e := p.stored[base+i]; e.Char() == c {
					state = e.To()
					goto stepped
				}
			}
		}
		if e := p.lut.d3[c]; uint32(e>>32) == hist {
			state = int32(uint32(e))
		} else {
			h1 := hist & histLaneMask
			d2 := &p.lut.d2[c]
			switch {
			case uint32(d2[0]>>32) == h1:
				state = int32(uint32(d2[0]))
			case uint32(d2[1]>>32) == h1:
				state = int32(uint32(d2[1]))
			case uint32(d2[2]>>32) == h1:
				state = int32(uint32(d2[2]))
			case uint32(d2[3]>>32) == h1:
				state = int32(uint32(d2[3]))
			default:
				state = p.lut.d1[c]
			}
		}
	}
stepped:
	return state, (hist<<histLaneBits | uint32(c)) & histMask
}

// scanAppendStopRoot is scanAppend with an early exit: it stops as soon as
// a consumed byte lands the machine back on the start state, returning the
// registers at that point (the remaining bytes stay unconsumed — the
// caller reads the advance off the returned position). The prefiltered
// backend uses it to run the exact kernel through a suspect window and
// hand the stream back to the lossy skimmer at the first start-state
// boundary, where skimming is provably sound. The per-byte body must stay
// identical to scanAppend's; the equivalence property tests and fuzzers
// drive both against the oracle.
func (p *Program) scanAppendStopRoot(state int32, hist uint32, pos int, data []byte, out []ac.Match) (int32, uint32, int, []ac.Match) {
	lut, rows, fast, over, outBits := p.lut, p.rows, p.fast, p.over, p.out.bits
	for _, c := range data {
		ref := rows[state]
		if ref >= rowDense {
			state = fast[ref-rowDense].move(c, &lut.d1, over)
		} else {
			if cnt := ref >> rowCountShift; cnt != 0 {
				base := ref & rowOffMask
				for i := uint32(0); i < cnt; i++ {
					if e := p.stored[base+i]; e.Char() == c {
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
				case uint32(d2[0]>>32) == h1:
					state = int32(uint32(d2[0]))
				case uint32(d2[1]>>32) == h1:
					state = int32(uint32(d2[1]))
				case uint32(d2[2]>>32) == h1:
					state = int32(uint32(d2[2]))
				case uint32(d2[3]>>32) == h1:
					state = int32(uint32(d2[3]))
				default:
					state = lut.d1[c]
				}
			}
		}
	stepped:
		hist = (hist<<histLaneBits | uint32(c)) & histMask
		pos++
		if outBits[uint32(state)>>6]&(1<<(uint32(state)&63)) != 0 {
			out = p.out.appendTo(state, pos, out)
		}
		if state == ac.Root {
			break
		}
	}
	return state, hist, pos, out
}

// ProgramStats reports the memory layout of one compiled program, the
// software analogue of the hwsim block-memory fill statistics: every byte
// the kernel can touch while scanning.
type ProgramStats struct {
	States        int // automaton states
	DenseStates   int // states promoted to fast rows
	StoredEntries int // stored-pointer entries of the compressed states
	DenseBytes    int // fast tier: DenseStates × 48 B of bitmap rows plus 4 B per override
	// StoredBytes is the stored-pointer arena, 4 B a pointer, plus the row
	// index, 4 B a state. Both are the Machine's, shared, not second copies,
	// and the arena holds every state's row: those of promoted states, which
	// the kernel never reads, included. (The displaced descriptors of those
	// rows, which the kernel never reads either, are not counted.)
	StoredBytes int
	LookupBytes int // the Machine's lookup table: d1/d2/d3 fixed rows
	OutputBytes int // output bitset, rank table and flattened pattern-ID lists
	TotalBytes  int
}

// Stats summarizes the program's memory layout.
func (p *Program) Stats() ProgramStats {
	st := ProgramStats{
		States:      len(p.rows),
		DenseStates: len(p.fast),
		DenseBytes:  len(p.fast)*int(unsafe.Sizeof(fastRow{})) + len(p.over)*4,
		StoredBytes: len(p.stored)*int(unsafe.Sizeof(Pointer(0))) + len(p.rows)*4,
		LookupBytes: int(unsafe.Sizeof(*p.lut)),
		OutputBytes: len(p.out.bits)*8 + len(p.out.rank)*4 + len(p.out.off)*4 + len(p.out.ids)*4,
	}
	for _, ref := range p.rows {
		if ref < rowDense {
			st.StoredEntries += int(ref >> rowCountShift)
		}
	}
	st.TotalBytes = st.DenseBytes + st.StoredBytes + st.LookupBytes + st.OutputBytes
	return st
}
