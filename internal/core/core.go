// Package core implements the paper's primary contribution: the default
// transition pointer (DTP) compression of the Aho-Corasick move-function
// DFA (§III.B).
//
// The observation driving the scheme is that in DPI rulesets most stored
// transition pointers target one of a few states close to the start state.
// Those popular targets are promoted to *default transition pointers* held
// in a 256-entry lookup table indexed by the current input character:
//
//   - depth 1: one default per character — the unique depth-1 state labeled
//     with that character, or the start state if none exists;
//   - depth 2: the 4 most commonly targeted depth-2 states per character,
//     each tagged with the 8-bit character of its preceding state;
//   - depth 3: the single most commonly targeted depth-3 state per
//     character, tagged with the 16 bits of its 2 preceding characters.
//
// An engine tracks the previous two input characters. On each input byte it
// first compares against the (few) transitions still stored at the current
// state; on a miss it takes the deepest default whose preceding-character
// comparison succeeds, falling through depth 3 → depth 2 → depth 1 → start
// state. Because a transition is only removed from a state when the default
// rule provably reproduces it, matching is exactly equivalent to the full
// DFA while storing >96% fewer pointers — and, unlike fail-pointer schemes,
// one input character is consumed every cycle regardless of input.
//
// Execution is split into the immutable Machine and one small register
// value per stream (Regs, see backend.go): every way of running the machine
// is a registered backend, a function of the two, and all of them are
// byte-exact equivalent — same states, histories, positions and match
// sequences on every input. Three backends ship today. The "reference"
// backend walks the compressed tables — a binary search over the state's
// stored row, then the lookup table — and is kept deliberately close to the
// paper's hardware description. The "baked" backend (see baked.go) adds the
// fast tier Build bakes into every machine, whole move rows for the
// most-visited states; its compressed tier reads the same stored-pointer
// arena through the same row index, and both tiers the same lookup table —
// one lookup table and one state memory, two interpreters — and both emit
// from the one flattened output table (outputTable). The "prefiltered"
// backend (see prefilter.go) is a two-stage pipeline: a tiny lossy
// automaton skims clean traffic and only suspect byte windows run through
// the exact baked loop. The lossy stage admits false positives
// but provably never false negatives — verifySuperset proves the contract
// structurally at bake time, in the spirit of verifyTransitions — so even
// the approximate pipeline stays exactly equivalent. Each interpreter's
// transition is written once, in its scan loop, and Machine.Verify runs
// those loops themselves from every state on every byte against the
// uncompressed-DFA oracle, and every registered backend on payloads; the
// lockstep property tests and fuzzers enforce register-level equivalence
// continuously.
//
// Removal correctness. For a state s at depth ≥ 2 the previous two
// characters are determined by s's path, so the default rule is evaluated
// exactly. For depth ≤ 1 the unknown history positions cannot cause a
// misfire: a depth-3 default for character c only matches histories h2 h1
// for which the trie node [h2 h1 c] — and therefore [h2 h1] — exists, and
// if [h2 h1] existed the automaton could not currently be at a state of
// depth ≤ 1 (the current state is always the *longest* suffix of the input
// that is a trie node). The same argument applies one level down for
// depth-2 defaults at the start state. Machine.Verify checks the
// resulting structural equivalence exhaustively; the matcher tests check it
// empirically against the oracle.
//
// Construction never expands the DFA it compresses. Build works from the
// trie's edges and its fail tree in O(states + edges + stored pointers) —
// see build.go for the recurrences and why they are exact. The
// dense |states| × 256 sweep (ac.Trie.ForEachMoveRow) is verification-only:
// Machine.Verify walks it, and the test suite keeps the former
// dense-sweep builder as the oracle the sparse one must equal field for
// field (TestSparseBuildMatchesDenseOracle, FuzzBuildEquivalence).
//
// Nor does the result keep the trie: what stays in memory is the paper's
// lookup table, state memory and match memory (outputTable), the fast tier
// and the prefilter. Build — the one way a Machine comes to exist — derives
// them from the trie, proves the prefilter's superset contract on it and
// lets it go; the lookup table is selected straight into its packed words,
// so no other form of it is made. What needs the uncompressed automaton
// later — Machine.Verify, the one proof of the whole image, and WriteDot —
// is handed a trie of the same ruleset: a proof is of the image against the
// rules.
package core

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"unsafe"

	"repro/internal/ac"
	"repro/internal/ruleset"
)

// Options configures a build. The compression scheme itself is the
// paper's and has no knobs: 4 depth-2 and 1 depth-3 defaults per
// lookup-table row (CompressionStats runs the depth-2 ablation).
type Options struct {
	// Backend selects the scan loop ScanAppend runs; every build bakes
	// the same tables whatever it names. BackendAuto (or "") picks the
	// fastest always-exact default — prefiltered when the lossy stage
	// compiles and passes its superset proof, baked otherwise.
	// BackendReference pins the slice-walking interpreter; BackendBaked and
	// BackendPrefiltered pin those loops, and a pinned prefiltered build
	// fails if the lossy stage cannot be kept. Unknown names are a Build
	// error listing RegisteredBackends.
	Backend string
	// denseStates budgets the baked kernel's fast tier: how many states
	// have their whole move row precomputed, as a bitmap over the depth-1
	// default row plus the targets that differ from it (0 =
	// defaultDenseStates, negative disables the tier). Only this package's
	// tests vary it: every setting scans identically.
	denseStates int
}

// Validate reports whether the options are buildable: the backend name
// resolves against the registry. It is the one home of that check —
// dpi.Config.Validate delegates here, and Build runs it first, so options
// that pass Validate cannot fail Build's option check later.
func (o Options) Validate() error {
	if o.Backend == "" || o.Backend == BackendAuto || slices.Contains(scanBackends[:], o.Backend) {
		return nil
	}
	return fmt.Errorf("core: unknown backend %q (want %s)",
		o.Backend, strings.Join(append([]string{BackendAuto}, RegisteredBackends()...), "|"))
}

// d2PerChar is the number of depth-2 defaults a lookup-table row holds:
// the paper's measured optimum, and the width of its 49-bit row.
const d2PerChar = 4

// D2Entry is a depth-2 default: taken when the previous input character
// equals Prev and no stored transition matched.
type D2Entry struct {
	Prev  byte
	State int32
}

// D3Entry is a depth-3 default: taken when the previous two input
// characters equal (Prev2, Prev1).
type D3Entry struct {
	Prev2, Prev1 byte
	State        int32
}

// LookupRow is one row of the lookup table as lists: what the default rule
// consults on one input character c. Build writes the table packed, straight
// into the machine's lookupTable; Machine.LookupRow decodes a row back into
// this form.
type LookupRow struct {
	// D1 is the depth-1 state labeled c, or ac.None. In hardware this is a
	// single bit per row because the target address is fixed.
	D1 int32
	// D2 holds the depth-2 defaults whose final character is c, most
	// popular first.
	D2 []D2Entry
	// D3 holds the depth-3 default whose final character is c, if any.
	D3 []D3Entry
}

// HistNone marks an invalid history byte (start of packet).
const HistNone int16 = -1

// lookupTable is the paper's 256-row lookup table, the one copy both
// interpreters read (see baked.go for the encoding). d1 is the depth-1
// default with the start-state fallback pre-resolved into the row; d2
// packs each of a row's depth-2 defaults into one 4-byte slot,
// preceding-character key above the 22-bit target state a Pointer names
// its target in, most popular first; d3 is one word keyed on both history
// characters at once. Empty slots carry keys no history can produce.
type lookupTable struct {
	d1 [256]int32
	d2 [256][d2PerChar]uint32
	d3 [256]uint64
}

// d2To is the target state of a packed depth-2 slot.
func d2To(e uint32) int32 { return int32(e & (maxStates - 1)) }

// resolve is the default rule on input character c under the fused history
// hist: the depth-3 default when both history characters match its key,
// else the depth-2 default whose key is the previous character, else the
// depth-1 default. Unknown history lanes match no key.
func (l *lookupTable) resolve(c byte, hist uint32) int32 {
	if e := l.d3[c]; uint32(e>>32) == hist {
		return int32(uint32(e))
	}
	h1 := hist & histLaneMask
	for _, e := range &l.d2[c] {
		if e>>pointerToBits == h1 {
			return d2To(e)
		}
	}
	return l.d1[c]
}

// LookupRow decodes row c of the machine's lookup table: the form hwsim's
// packer, WriteDot and the verifiers read it in.
func (m *Machine) LookupRow(c byte) LookupRow {
	l := &m.lut
	row := LookupRow{D1: ac.None}
	if s := l.d1[c]; s != ac.Root {
		row.D1 = s
	}
	for _, e := range l.d2[c] {
		if key := e >> pointerToBits; key <= 0xFF {
			row.D2 = append(row.D2, D2Entry{Prev: byte(key), State: d2To(e)})
		}
	}
	if e := l.d3[c]; e != emptyD3Key {
		key := uint32(e >> 32)
		row.D3 = []D3Entry{{Prev2: byte(key >> histLaneBits), Prev1: byte(key), State: int32(uint32(e))}}
	}
	return row
}

// Pointer is a transition pointer still stored at a state after
// compression, in one word as the paper's state memory holds one: the
// character it is taken on in bits 22-29, the target state in the low 22,
// and bit 30 set — rowInline, so a pointer is also the row descriptor of a
// row that holds only it (see rowOf). Pointers compare by character first,
// so a row sorted by character is sorted by value.
type Pointer uint32

const (
	pointerToBits = 22
	// maxStates is the most states a machine can have: a stored pointer
	// names its target in pointerToBits.
	maxStates = 1 << pointerToBits
)

func newPointer(c byte, to int32) Pointer {
	return Pointer(rowInline | uint32(c)<<pointerToBits | uint32(to))
}

// pointerKey is what a pointer taken on c holds above its target: the
// scan loop's whole test of a stored pointer, arena entry or descriptor, is
// word>>pointerToBits == pointerKey(c).
func pointerKey(c byte) uint32 { return rowInline>>pointerToBits | uint32(c) }

// Char is the input character the pointer is taken on.
func (p Pointer) Char() byte { return byte(p >> pointerToBits) }

// To is the state the pointer leads to.
func (p Pointer) To() int32 { return int32(p & (maxStates - 1)) }

// BuildStats reports the Table II quantities for one machine.
type BuildStats struct {
	States           int
	OriginalPointers int64   // non-root pointers of the uncompressed DFA
	OriginalAvg      float64 // "Avg.Pointers" under Original Aho-Corasick

	D1Count int // depth-1 defaults in the lookup table ("d1" row)
	D2Count int // depth-2 defaults added
	D3Count int // depth-3 defaults added

	StoredAfterD1   int64   // pointers left with d1 defaults only
	StoredAfterD12  int64   // ... with d1+d2
	StoredAfterD123 int64   // ... with d1+d2+d3
	AvgAfterD1      float64 // "Avg.Pointers" after the "d1" row
	AvgAfterD12     float64 // after "d1+d2"
	AvgAfterD123    float64 // after "d1+d2+d3"

	StoredPointers    int64 // pointers the machine stores: StoredAfterD123
	AvgStored         float64
	MaxStoredPerState int
	// Reduction is the fractional cut vs the original DFA (Table II
	// "Reduction" row).
	Reduction float64
}

// Machine is a DTP-compressed Aho-Corasick automaton. It holds no trie.
type Machine struct {
	// lut is the lookup table, read in place by both interpreters.
	lut lookupTable
	// stored is the state memory's arena: the kept pointers of every row
	// of two or more back to back in state order, each row sorted by
	// character. rows is its one row index, one descriptor per state (see
	// rowDense): a one-pointer row's pointer itself, the count and offset
	// of a longer row, or — for a state promoted to the fast tier — its
	// fast-row number, with the stored-row descriptor it displaced kept at
	// that number in displaced. The baked loop reads both; the reference
	// interpreter reads a row through StoredRow or StoredAt, fast tier or
	// not.
	stored    []Pointer
	rows      []uint32
	displaced []uint32
	// fast is the fast tier, one row per promoted state, and over every fast
	// row's overrides of the depth-1 default row, back to back (see
	// fastRow): what the baked loop reads beside the compressed tables.
	fast []fastRow
	over []int32
	// out is the match memory, read by every interpreter.
	out   outputTable
	Stats BuildStats
	// depth is the longest pattern's length, D: see Depth. It is kept
	// here, not in Stats, which the build fingerprint pins.
	depth int
	// windows ends fold prefixes (see Fold); zero, so every prefix is D
	// bytes, on a hand-assembled machine.
	windows windowFilter

	// pre is the lossy prefilter stage, compiled and superset-verified
	// beside the compression; nil when the collapsed machine does not fit
	// the packed entry format or verifySuperset refused it. The
	// prefiltered backend needs it.
	pre *Prefilter
	// backend is the configured Options.Backend; empty (auto) on
	// hand-assembled machines. kind is what it resolved to once the
	// prefilter's fate was known — the backend ScanAppend runs; the zero
	// value is the reference interpreter, which every machine supports.
	backend string
	kind    backendKind
	// generation is the process-unique compile generation stamped by Build
	// (shared across a BuildGrouped); zero on hand-assembled machines. See
	// generation.go.
	generation uint64
}

// Build compresses the move-function DFA for set under opts. A second
// goroutine (newSideStages) works beside the compression chain, which tells
// it when Link is done and hands it the fail tree, and sends its results on
// an unbuffered channel, which every return after it starts receives from
// first: no goroutine outlives Build.
func Build(set *ruleset.Set, opts Options) (*Machine, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	trie, err := ac.Layout(set)
	if err != nil {
		return nil, err
	}
	m := &Machine{backend: opts.Backend, generation: nextGeneration(), depth: int(trie.Nodes[deepest(trie)].Depth)}
	linked, handoff, side := make(chan struct{}), make(chan *failTree, 1), make(chan sideStages)
	go func() { side <- newSideStages(trie, opts, &m.lut.d1, linked, handoff) }()
	trie.Link()
	close(linked)
	ft := newFailTree(trie)
	d := defaults{&m.lut, unsafe.Slice(&m.lut.d2[0][0], len(m.lut.d2)*d2PerChar)}
	selectDefaults(trie, ft, d, &m.Stats)
	handoff <- ft
	m.stored, m.rows, err = compress(trie, ft, d, &m.Stats)
	if err == nil {
		m.windows = newWindowFilter(trie)
	}
	stages := <-side
	if err != nil {
		return nil, err
	}
	if err := m.compileBackends(stages); err != nil {
		return nil, err
	}
	return m, nil
}

// sideStages is what Build's second goroutine derives: the match memory,
// the fast tier and the lossy prefilter, nil when refused (refused says why).
type sideStages struct {
	out     outputTable
	pre     *Prefilter
	refused error
	tier    fastTier
}

// newSideStages runs beside Link the prefilter and its proof, which read
// only what Link leaves alone; once linked is closed, after Link, the match
// memory, which reads the output links; and once handoff brings the fail
// tree — sent after selectDefaults, so d1 is final too — the fast tier. It
// writes nothing the main goroutine reads.
func newSideStages(t *ac.Trie, opts Options, d1 *[256]int32, linked <-chan struct{}, handoff <-chan *failTree) (ss sideStages) {
	if ss.pre = CompilePrefilter(t); ss.pre == nil {
		ss.refused = fmt.Errorf("core: the prefilter does not fit its packed entry format")
	} else if ss.refused = ss.pre.verifySuperset(t); ss.refused != nil {
		ss.pre = nil
	}
	<-linked
	ss.out = newOutputTable(t)
	ss.tier = bakeFastTier(t, <-handoff, d1, opts.denseStates)
	return ss
}

// compileBackends installs what the second goroutine derived — a promoted
// state's descriptor becomes its fast-row number, the one it held moves to
// displaced — and resolves the configured backend. A refused prefilter is
// dropped, never used, and a pinned prefiltered backend turns that into a
// Build error.
func (m *Machine) compileBackends(stages sideStages) error {
	tier := stages.tier
	for i, s := range tier.states {
		tier.states[i] = m.rows[s]
		m.rows[s] = rowDense | uint32(i)
	}
	m.out, m.displaced, m.fast, m.over = stages.out, tier.states, tier.rows, tier.over
	if m.pre = stages.pre; m.pre == nil && m.backend == BackendPrefiltered {
		return fmt.Errorf("core: Backend %q pinned: %w", m.backend, stages.refused)
	}
	m.kind = m.resolveKind()
	return nil
}

// Prefilter returns the machine's lossy first-stage automaton, or nil when
// the prefiltered backend is unavailable.
func (m *Machine) Prefilter() *Prefilter { return m.pre }

// storedRef returns state s's stored-row descriptor, looking through a
// fast-row number to the descriptor the promotion displaced.
func (m *Machine) storedRef(s int32) *uint32 {
	ref := &m.rows[s]
	if *ref >= rowDense {
		ref = &m.displaced[*ref-rowDense]
	}
	return ref
}

// StoredRow returns the pointers kept at state s, sorted by character. The
// slice aliases the machine's state memory — the arena, or a one-pointer
// row's descriptor — so it allocates nothing: read-only.
func (m *Machine) StoredRow(s int32) []Pointer { return rowOf(m.stored, m.storedRef(s)) }

// rowOf is the row that the stored-row descriptor at ref describes: the
// descriptor itself when it is one pointer, else its slice of arena stored.
func rowOf(stored []Pointer, ref *uint32) []Pointer {
	if *ref >= rowInline {
		return inlineRow(ref)
	}
	lo := *ref & rowOffMask
	hi := lo + *ref>>rowCountShift
	return stored[lo:hi:hi]
}

// inlineRow is the one-pointer row that the descriptor at ref holds.
func inlineRow(ref *uint32) []Pointer { return unsafe.Slice((*Pointer)(ref), 1) }

// StoredAt returns the stored transition target of (s, c), or ac.None: a
// binary search of the state's row, as the reference interpreter takes one
// per byte.
func (m *Machine) StoredAt(s int32, c byte) int32 {
	row := m.StoredRow(s)
	lo, hi := 0, len(row)
	for lo < hi {
		mid := (lo + hi) / 2
		if row[mid].Char() < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(row) && row[lo].Char() == c {
		return row[lo].To()
	}
	return ac.None
}

// LastMatch flags the last pattern ID of each list in the match memory, in
// a bit no pattern ID uses: the paper's last flag, one per ID word here.
const LastMatch = uint32(1) << 31

// outputTable is the match memory: per state, whether any pattern ends
// there, and if so where its complete list starts — own outputs and each
// fail-ancestor's along the OutLink chain, flattened at build time in
// ascending pattern ID, as the paper's match memory holds whole
// string-number lists. A scan visits ends in ascending order, so with each
// list sorted one machine emits in canonical (End, PatternID) order by
// construction. Each distinct list is stored once: a state that ends no
// pattern of its own shares its OutLink's list, and two output states have
// equal lists exactly when the first pattern-owning state on their chains
// is the same (every pattern ends at one state). The lists sit in ids in
// order of first use by state number, each ending at an ID flagged
// LastMatch. One per machine, read by every interpreter and laid out by
// hwsim's packer word for word. The no-match fast path loads one word of
// bits; on a hit the state's rank among output states — a per-word prefix
// count plus a popcount of the lower bits — indexes off.
type outputTable struct {
	bits []uint64 // bit s set iff any pattern ends at state s
	rank []uint32 // per bits word: output states in the words before it
	off  []uint32 // per output state, by rank: where its list starts in ids
	ids  []uint32 // every distinct pattern-ID list, back to back, last flagged
}

// newOutputTable lays out t's output chains, each list sorted and stored
// once.
func newOutputTable(t *ac.Trie) outputTable {
	n := int32(t.NumStates())
	o := outputTable{bits: make([]uint64, (n+63)/64)}
	o.rank = make([]uint32, len(o.bits))
	outStates, outIDs := 0, 0
	for s := int32(0); s < n; s++ {
		if s&63 == 0 {
			o.rank[s>>6] = uint32(outStates)
		}
		if !t.HasOutput(s) {
			continue
		}
		o.bits[uint32(s)>>6] |= 1 << (uint32(s) & 63)
		outStates++
		if t.Nodes[s].NumOut != 0 {
			for cur := s; cur != ac.None; cur = t.Nodes[cur].OutLink {
				outIDs += len(t.Out(cur))
			}
		}
	}
	// A list's owner is an output state itself, so its slot in off records
	// where the list went once laid out: noList until then.
	const noList = ^uint32(0)
	o.off = make([]uint32, outStates)
	for i := range o.off {
		o.off[i] = noList
	}
	o.ids = make([]uint32, 0, outIDs)
	for s := int32(0); s < n; s++ {
		if !o.has(s) {
			continue
		}
		owner := s
		if t.Nodes[s].NumOut == 0 {
			owner = t.Nodes[s].OutLink
		}
		at := &o.off[o.rankOf(owner)]
		if *at == noList {
			*at = uint32(len(o.ids))
			for cur := owner; cur != ac.None; cur = t.Nodes[cur].OutLink {
				for _, id := range t.Out(cur) {
					o.ids = append(o.ids, uint32(id))
				}
			}
			slices.Sort(o.ids[*at:])
			o.ids[len(o.ids)-1] |= LastMatch
		}
		o.off[o.rankOf(s)] = *at
	}
	return o
}

// has reports whether any pattern ends at state s.
func (o *outputTable) has(s int32) bool {
	return o.bits[uint32(s)>>6]&(1<<(uint32(s)&63)) != 0
}

// rankOf is output state s's rank among output states: its slot in off.
func (o *outputTable) rankOf(s int32) uint32 {
	w, bit := uint32(s)>>6, uint64(1)<<(uint32(s)&63)
	return o.rank[w] + uint32(bits.OnesCount64(o.bits[w]&(bit-1)))
}

// appendTo appends a Match ending at pos for every pattern of output state
// s, reading its list up to the last flag. It is reached only on a set bit;
// a state with no output has no rank and no slot.
func (o *outputTable) appendTo(s int32, pos int, out []ac.Match) []ac.Match {
	for _, id := range o.ids[o.off[o.rankOf(s)]:] {
		out = append(out, ac.Match{PatternID: int32(id &^ LastMatch), End: pos})
		if id&LastMatch != 0 {
			break
		}
	}
	return out
}

// MatchMemory returns the machine's match memory: every distinct pattern-ID
// list once, back to back in order of first use by state number, each
// ascending with its last ID flagged LastMatch. The slice is the machine's
// own: read-only.
func (m *Machine) MatchMemory() []uint32 { return m.out.ids }

// MatchList returns where the list of the patterns ending at state s starts
// in MatchMemory, or -1 when none does.
func (m *Machine) MatchList(s int32) int {
	if !m.out.has(s) {
		return -1
	}
	return int(m.out.off[m.out.rankOf(s)])
}

// NumStates returns the number of automaton states, start state included.
func (m *Machine) NumStates() int { return len(m.rows) }
