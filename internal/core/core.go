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
// Execution is split into the immutable program — this Machine and what it
// compiles to — and one small register value per stream (Regs, see
// backend.go): every way of running the machine is a registered backend, a
// function of the two, and all of them are byte-exact equivalent — same
// states, histories, positions and match sequences on every input. Three
// backends ship today. The "reference" backend walks the Machine itself —
// a binary search over the state's stored row, D2/D3 entry lists,
// Machine.Next — and is kept deliberately close to the paper's hardware
// description. The "baked" backend runs the Program (see baked.go), a pure
// re-layout into fixed arrays and a two-tier fast/compressed format that
// Build compiles by default; its compressed tier reads the Machine's own
// stored-pointer arena through the Machine's own row index — one state
// memory, two interpreters — and both
// emit from the Machine's one flattened output table (outputTable). The
// "prefiltered" backend (see prefilter.go) is a two-stage pipeline: a tiny
// lossy automaton skims clean traffic and only suspect byte windows run
// through the exact baked kernel. The lossy stage admits false positives
// but provably never false negatives — VerifySuperset proves the contract
// structurally at bake time, in the spirit of VerifyTransitions — so even
// the approximate pipeline stays exactly equivalent. VerifyScan iterates
// every registered backend against the uncompressed-DFA oracle; the
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
// depth-2 defaults at the start state. Machine.VerifyTransitions checks the
// resulting structural equivalence exhaustively; the matcher tests check it
// empirically against the oracle.
//
// Construction never expands the DFA it compresses. Build works from the
// trie's edges and its fail tree in O(states + edges + stored pointers) —
// see build.go for the recurrences and why they are exact. The
// dense |states| × 256 sweep (ac.Trie.ForEachMoveRow) is verification-only:
// VerifyTransitions walks it, and the test suite keeps the former
// dense-sweep builder as the oracle the sparse one must equal field for
// field (TestSparseBuildMatchesDenseOracle, FuzzBuildEquivalence).
//
// Nor does the result keep the trie: what stays in memory is the paper's
// lookup table, state memory and match memory (outputTable), and the
// kernels' tables. Build — the one way a Machine comes to exist — derives
// them from the trie, proves VerifySuperset on it and lets it go. What needs
// the uncompressed automaton later — the other Verify* proofs, WriteDot — is
// handed a trie of the same ruleset: a proof is of the image against the
// rules.
package core

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/ac"
	"repro/internal/ruleset"
)

// Options configures compression.
type Options struct {
	// D2PerChar is the number of depth-2 defaults per character value.
	// The paper found 4 optimal for Snort-derived sets; 0 means 4.
	D2PerChar int
	// D3PerChar is the number of depth-3 defaults per character value.
	// The paper uses 1; 0 means 1. (Values >1 are supported for ablation
	// studies; the hardware lookup-table row format fits exactly 1.)
	D3PerChar int
	// MaxDepth limits which default depths are used: 1 = d1 only,
	// 2 = d1+d2, 3 = d1+d2+d3. 0 means 3. Used by the Table II progressive
	// rows and the ablation benches.
	MaxDepth int
	// DenseStates budgets the baked kernel's fast tier: how many states
	// have their whole move row precomputed, as a bitmap over the depth-1
	// default row plus the targets that differ from it (0 =
	// DefaultDenseStates, negative disables the tier). Tuning only: every
	// setting scans identically.
	DenseStates int
	// Backend selects the scan implementation ScanAppend and NewScanner run:
	// BackendAuto (or "") picks the fastest always-exact default —
	// prefiltered when the lossy stage compiles and passes VerifySuperset,
	// baked if only the flat Program compiled, reference otherwise.
	// BackendReference pins the slice-walking interpreter (and skips
	// compiling the kernels); BackendBaked and BackendPrefiltered pin
	// those kernels and make Build fail if the configuration cannot
	// compile them. Unknown names are a Build error listing
	// RegisteredBackends. NewScannerFor overrides it per scanner.
	Backend string
}

func (o Options) withDefaults() Options {
	if o.D2PerChar == 0 {
		o.D2PerChar = 4
	}
	if o.D3PerChar == 0 {
		o.D3PerChar = 1
	}
	if o.MaxDepth == 0 {
		o.MaxDepth = 3
	}
	if o.Backend == "" {
		o.Backend = BackendAuto
	}
	return o
}

// Validate resolves defaults exactly as Build does and reports whether the
// options are buildable: range checks and backend-name resolution against
// the registry. It is the one home of that logic — dpi.Config.Validate
// delegates here, and Build runs the same pair, so a configuration that
// passes Validate cannot fail Build's option checks later.
func (o Options) Validate() error { return o.withDefaults().validate() }

func (o Options) validate() error {
	if o.D2PerChar < 0 || o.D3PerChar < 0 {
		return fmt.Errorf("core: negative default counts %+v", o)
	}
	if o.MaxDepth < 1 || o.MaxDepth > 3 {
		return fmt.Errorf("core: MaxDepth %d out of range [1,3]", o.MaxDepth)
	}
	switch o.Backend {
	case "", BackendAuto:
	default:
		known := false
		for _, name := range RegisteredBackends() {
			if o.Backend == name {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("core: unknown backend %q (want %s)",
				o.Backend, strings.Join(append([]string{BackendAuto}, RegisteredBackends()...), "|"))
		}
	}
	return nil
}

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

// Defaults is the content of the 256-row lookup table.
type Defaults struct {
	// D1[c] is the depth-1 state labeled c, or ac.None. In hardware this is
	// a single bit per row because the target address is fixed.
	D1 [256]int32
	// D2[c] holds up to D2PerChar depth-2 defaults whose final character is
	// c, most popular first.
	D2 [256][]D2Entry
	// D3[c] holds up to D3PerChar depth-3 defaults whose final character is
	// c, most popular first.
	D3 [256][]D3Entry
}

// HistNone marks an invalid history byte (start of packet).
const HistNone int16 = -1

// Resolve evaluates the default rule for input character c given the
// previous two characters (HistNone when unknown): the deepest matching
// default wins, falling back to the start state. maxDepth limits the
// depths consulted (3 for the full scheme).
func (d *Defaults) Resolve(c byte, h2, h1 int16, maxDepth int) int32 {
	if maxDepth >= 3 && h2 != HistNone && h1 != HistNone {
		for _, e := range d.D3[c] {
			if int16(e.Prev2) == h2 && int16(e.Prev1) == h1 {
				return e.State
			}
		}
	}
	if maxDepth >= 2 && h1 != HistNone {
		for _, e := range d.D2[c] {
			if int16(e.Prev) == h1 {
				return e.State
			}
		}
	}
	if s := d.D1[c]; s != ac.None {
		return s
	}
	return ac.Root
}

// Pointer is a transition pointer still stored at a state after
// compression, in one word as the paper's state memory holds one: the
// character it is taken on in the top 8 bits, the target state in the low
// 24. Pointers compare by character first, so a row sorted by character is
// sorted by value.
type Pointer uint32

const (
	pointerToBits = 24
	// maxStates is the most states a machine can have: a stored pointer
	// names its target in pointerToBits.
	maxStates = 1 << pointerToBits
)

func newPointer(c byte, to int32) Pointer { return Pointer(c)<<pointerToBits | Pointer(to) }

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

	StoredPointers    int64 // pointers stored under the configured MaxDepth
	AvgStored         float64
	MaxStoredPerState int
	// Reduction is the fractional cut vs the original DFA under the
	// configured MaxDepth (Table II "Reduction" row).
	Reduction float64
}

// Machine is a DTP-compressed Aho-Corasick automaton. It holds no trie.
type Machine struct {
	Opts     Options
	Defaults Defaults
	// stored is the state memory: every state's kept pointers back to back
	// in state order, each state's sorted by character. rows is its one row
	// index, one descriptor per state (see rowDense): the count and offset
	// of the state's row, or — once the baked Program has promoted the state
	// to its fast tier — its fast-row number, with the stored-row descriptor
	// it displaced kept at that number in displaced. The Program reads
	// stored and rows themselves, not copies; the reference interpreter reads
	// a row through StoredRow or StoredAt, fast tier or not.
	stored    []Pointer
	rows      []uint32
	displaced []uint32
	// out is the match memory, shared with the baked Program like stored.
	out   outputTable
	Stats BuildStats

	// prog is the baked scan kernel, nil when the configured backend is
	// reference, when the machine was hand-assembled, or when the
	// configuration does not fit the fixed row format. Scans fall back to
	// the slice-walking reference path when nil.
	prog *Program
	// pre is the lossy prefilter stage, compiled (and superset-verified)
	// alongside prog; nil whenever prog is nil or the collapsed machine
	// does not fit the packed entry format. The prefiltered backend needs
	// both.
	pre *Prefilter
	// backend is the configured Options.Backend; empty (auto) on
	// hand-assembled machines. kind is what it resolved to once the kernels
	// were compiled — the backend ScanAppend runs; the zero value is the
	// reference interpreter, which every machine supports.
	backend string
	kind    backendKind
	// generation is the process-unique compile generation stamped by Build
	// (shared across a BuildGrouped); zero on hand-assembled machines. See
	// generation.go.
	generation uint64
}

// Build compresses the move-function DFA for set under opts.
func Build(set *ruleset.Set, opts Options) (*Machine, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	trie, err := ac.New(set)
	if err != nil {
		return nil, err
	}
	m := &Machine{Opts: opts, backend: opts.Backend, generation: nextGeneration()}
	ft := newFailTree(trie)
	m.selectDefaults(trie, ft)
	if err := m.compress(trie, ft); err != nil {
		return nil, err
	}
	if err := m.compileBackends(trie, ft); err != nil {
		return nil, err
	}
	return m, nil
}

// compileBackends flattens the match memory every backend emits from and
// bakes the kernels the configured backend needs: the flat Program and, on
// top of it, the lossy prefilter stage (which must pass VerifySuperset to be
// kept — a prefilter that could miss is discarded, never silently used).
// Under BackendAuto compilation is best-effort and unbakeable
// configurations fall back to the reference path; an explicitly pinned
// kernel backend turns the same condition into a Build error.
func (m *Machine) compileBackends(trie *ac.Trie, ft *failTree) error {
	m.out = newOutputTable(trie)
	if m.backend == BackendReference {
		return nil
	}
	m.prog = compile(m, trie, ft)
	if m.prog != nil {
		m.pre = CompilePrefilter(trie)
		if m.pre != nil {
			if err := m.VerifySuperset(trie); err != nil {
				m.pre = nil
				if m.backend == BackendPrefiltered {
					return err
				}
			}
		}
	}
	switch m.backend {
	case BackendBaked:
		if m.prog == nil {
			return fmt.Errorf("core: Backend %q pinned but the configuration does not fit the baked row format", m.backend)
		}
	case BackendPrefiltered:
		if m.prog == nil || m.pre == nil {
			return fmt.Errorf("core: Backend %q pinned but the configuration does not fit the kernel formats", m.backend)
		}
	}
	m.kind = m.resolveKind()
	return nil
}

// Program returns the machine's baked scan kernel, or nil when the machine
// runs on the slice-walking reference path.
func (m *Machine) Program() *Program { return m.prog }

// Prefilter returns the machine's lossy first-stage automaton, or nil when
// the prefiltered backend is unavailable.
func (m *Machine) Prefilter() *Prefilter { return m.pre }

// storedRef returns state s's stored-row descriptor, looking through a
// fast-row number to the descriptor the promotion displaced.
func (m *Machine) storedRef(s int32) uint32 {
	ref := m.rows[s]
	if ref >= rowDense {
		ref = m.displaced[ref-rowDense]
	}
	return ref
}

// StoredRow returns the pointers kept at state s, sorted by character. The
// slice aliases the machine's state memory: read-only.
func (m *Machine) StoredRow(s int32) []Pointer {
	ref := m.storedRef(s)
	lo := ref & rowOffMask
	hi := lo + ref>>rowCountShift
	return m.stored[lo:hi:hi]
}

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

// Next performs one hardware-equivalent transition from state s on input c
// with runtime history (h2, h1): stored pointers first, then the default
// rule.
func (m *Machine) Next(s int32, c byte, h2, h1 int16) int32 {
	if to := m.StoredAt(s, c); to != ac.None {
		return to
	}
	return m.Defaults.Resolve(c, h2, h1, m.Opts.MaxDepth)
}

// outputTable is the match memory: per state, whether any pattern ends
// there, and if so the complete list of those that do — own outputs and
// each fail-ancestor's along the OutLink chain, flattened at build time in
// ascending pattern ID, as the paper's match memory holds whole
// string-number lists. A scan visits ends in ascending order, so with each
// list sorted one machine emits in canonical (End, PatternID) order by
// construction. One per machine, read by every interpreter: the
// reference loop, the baked kernel, hwsim's packer. The no-match fast path
// loads one word of bits; on a hit the state's rank among output states —
// a per-word prefix count plus a popcount of the lower bits — indexes off.
type outputTable struct {
	bits []uint64 // bit s set iff any pattern ends at state s
	rank []uint32 // per bits word: output states in the words before it
	off  []uint32 // per output state, by rank, plus one: its slice of ids
	ids  []int32  // every output state's full pattern-ID list, back to back
}

// newOutputTable flattens t's output chains, each state's list sorted.
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
		for cur := s; cur != ac.None; cur = t.Nodes[cur].OutLink {
			outIDs += len(t.Out(cur))
		}
	}
	o.off = make([]uint32, 0, outStates+1)
	o.ids = make([]int32, 0, outIDs)
	for s := int32(0); s < n; s++ {
		if !t.HasOutput(s) {
			continue
		}
		start := len(o.ids)
		o.off = append(o.off, uint32(start))
		for cur := s; cur != ac.None; cur = t.Nodes[cur].OutLink {
			o.ids = append(o.ids, t.Out(cur)...)
		}
		slices.Sort(o.ids[start:])
	}
	o.off = append(o.off, uint32(len(o.ids)))
	return o
}

// has reports whether any pattern ends at state s.
func (o *outputTable) has(s int32) bool {
	return o.bits[uint32(s)>>6]&(1<<(uint32(s)&63)) != 0
}

// appendTo appends a Match ending at pos for every pattern of output state
// s. It is reached only on a set bit; a state with no output has no rank
// and no slot.
func (o *outputTable) appendTo(s int32, pos int, out []ac.Match) []ac.Match {
	w, bit := uint32(s)>>6, uint64(1)<<(uint32(s)&63)
	r := o.rank[w] + uint32(bits.OnesCount64(o.bits[w]&(bit-1)))
	for _, id := range o.ids[o.off[r]:o.off[r+1]] {
		out = append(out, ac.Match{PatternID: id, End: pos})
	}
	return out
}

// NumStates returns the number of automaton states, start state included.
func (m *Machine) NumStates() int { return len(m.rows) }

// AppendOutputs appends a Match ending at end for every pattern that ends
// at state s, in ascending pattern ID.
func (m *Machine) AppendOutputs(s int32, end int, out []ac.Match) []ac.Match {
	if m.out.has(s) {
		out = m.out.appendTo(s, end, out)
	}
	return out
}
