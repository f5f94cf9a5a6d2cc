package core

// The dense builder, kept as the oracle the sparse one (build.go, compile
// in baked.go) is proved against: popularity, defaults, stored pointers and
// fast rows the way Build derived them before — by materializing every
// 256-entry move row, resolving the default rule per (state, character)
// pair, filling a promoted state's row with fail-chain Trie.Move walks and
// reading its bitmap and overrides off that row byte by byte. Nothing here
// shares a line with the code under test beyond Defaults.Resolve and
// staticHistory, which define the machine's semantics. The dense machine
// is a hand-assembled Machine plus the trie it is being built from.

import (
	"bytes"
	"cmp"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/ac"
	"repro/internal/ruleset"
)

// denseBuild runs the dense passes over t and returns the machine together
// with the popularity tally they ranked by.
func denseBuild(t *ac.Trie, opts Options) (*Machine, []int64) {
	m := &Machine{Opts: opts.withDefaults()}
	pop := m.denseSelectDefaults(t)
	m.setStoredRows(m.denseCompress(t))
	m.out = denseOutputs(t)
	return m, pop
}

// denseOutputs fills the output table by Trie.AppendOutputs, one OutLink
// walk per state, each list then sorted by pattern ID.
func denseOutputs(t *ac.Trie) outputTable {
	n := t.NumStates()
	o := outputTable{bits: make([]uint64, (n+63)/64), off: []uint32{}, ids: []int32{}}
	o.rank = make([]uint32, len(o.bits))
	for s := 0; s < n; s++ {
		if s%64 == 0 {
			o.rank[s/64] = uint32(len(o.off))
		}
		if t.HasOutput(int32(s)) {
			o.bits[s>>6] |= 1 << (s & 63)
			o.off = append(o.off, uint32(len(o.ids)))
			outs := t.AppendOutputs(int32(s), 0, nil)
			ac.SortMatches(outs)
			for _, mt := range outs {
				o.ids = append(o.ids, mt.PatternID)
			}
		}
	}
	o.off = append(o.off, uint32(len(o.ids)))
	return o
}

// setStoredRows makes rows — one list per state — the machine's state
// memory: the lists packed and back to back in state order, and the row
// index saying where each begins and how long it is.
func (m *Machine) setStoredRows(rows [][]transition) {
	m.stored = []Pointer{}
	m.rows = make([]uint32, len(rows))
	for s, row := range rows {
		m.rows[s] = uint32(len(row))<<rowCountShift | uint32(len(m.stored))
		for _, tr := range row {
			m.stored = append(m.stored, Pointer(tr.Char)<<24|Pointer(tr.To))
		}
	}
}

func (m *Machine) denseSelectDefaults(t *ac.Trie) []int64 {
	n := t.NumStates()
	popularity := make([]int64, n)
	var original int64
	t.ForEachMoveRow(func(s int32, row []int32) {
		for c := 0; c < 256; c++ {
			to := row[c]
			if to == ac.Root {
				continue
			}
			original++
			popularity[to]++
		}
	})
	m.Stats.States = n
	m.Stats.OriginalPointers = original
	m.Stats.OriginalAvg = float64(original) / float64(n)

	for c := range m.Defaults.D1 {
		m.Defaults.D1[c] = ac.None
	}
	d2cand := make(map[byte][]int32)
	d3cand := make(map[byte][]int32)
	for i := 1; i < n; i++ {
		nd := t.Nodes[i]
		switch nd.Depth {
		case 1:
			m.Defaults.D1[nd.Char] = int32(i)
			m.Stats.D1Count++
		case 2:
			d2cand[nd.Char] = append(d2cand[nd.Char], int32(i))
		case 3:
			d3cand[nd.Char] = append(d3cand[nd.Char], int32(i))
		}
	}
	pickTop := func(cands []int32, k int) []int32 {
		sort.Slice(cands, func(a, b int) bool {
			pa, pb := popularity[cands[a]], popularity[cands[b]]
			if pa != pb {
				return pa > pb
			}
			return cands[a] < cands[b]
		})
		if len(cands) > k {
			cands = cands[:k]
		}
		return cands
	}
	for c, cands := range d2cand {
		for _, s := range pickTop(cands, m.Opts.D2PerChar) {
			prev := t.Nodes[t.Nodes[s].Parent].Char
			m.Defaults.D2[c] = append(m.Defaults.D2[c], D2Entry{Prev: prev, State: s})
			m.Stats.D2Count++
		}
	}
	for c, cands := range d3cand {
		for _, s := range pickTop(cands, m.Opts.D3PerChar) {
			p1 := t.Nodes[s].Parent
			p2 := t.Nodes[p1].Parent
			m.Defaults.D3[c] = append(m.Defaults.D3[c], D3Entry{
				Prev2: t.Nodes[p2].Char,
				Prev1: t.Nodes[p1].Char,
				State: s,
			})
			m.Stats.D3Count++
		}
	}
	return popularity
}

// denseCompress returns every state's stored row and fills in the stats.
func (m *Machine) denseCompress(t *ac.Trie) [][]transition {
	n := t.NumStates()
	rows := make([][]transition, n)
	maxStored := 0
	t.ForEachMoveRow(func(s int32, row []int32) {
		h2, h1 := staticHistory(t, s)
		for c := 0; c < 256; c++ {
			to := row[c]
			if to == ac.Root {
				continue
			}
			ch := byte(c)
			if m.Defaults.Resolve(ch, h2, h1, 1) != to {
				m.Stats.StoredAfterD1++
			}
			if m.Defaults.Resolve(ch, h2, h1, 2) != to {
				m.Stats.StoredAfterD12++
			}
			if m.Defaults.Resolve(ch, h2, h1, 3) != to {
				m.Stats.StoredAfterD123++
			}
			if m.Defaults.Resolve(ch, h2, h1, m.Opts.MaxDepth) != to {
				rows[s] = append(rows[s], transition{Char: ch, To: to})
			}
		}
		if len(rows[s]) > maxStored {
			maxStored = len(rows[s])
		}
	})
	fn := float64(n)
	st := &m.Stats
	st.AvgAfterD1 = float64(st.StoredAfterD1) / fn
	st.AvgAfterD12 = float64(st.StoredAfterD12) / fn
	st.AvgAfterD123 = float64(st.StoredAfterD123) / fn
	switch m.Opts.MaxDepth {
	case 1:
		st.StoredPointers = st.StoredAfterD1
	case 2:
		st.StoredPointers = st.StoredAfterD12
	default:
		st.StoredPointers = st.StoredAfterD123
	}
	st.AvgStored = float64(st.StoredPointers) / fn
	st.MaxStoredPerState = maxStored
	if st.OriginalPointers > 0 {
		st.Reduction = 1 - float64(st.StoredPointers)/float64(st.OriginalPointers)
	}
	return rows
}

// densePromoted ranks every state by a full sort and takes the budget off
// the front.
func densePromoted(m *Machine, t *ac.Trie, pop []int64) []bool {
	n := t.NumStates()
	promoted := make([]bool, n)
	budget := m.Opts.DenseStates
	if budget == 0 {
		budget = DefaultDenseStates
	}
	if budget < 0 {
		return promoted
	}
	if budget > n {
		budget = n
	}
	order := make([]int32, n)
	for s := range order {
		order[s] = int32(s)
	}
	tier := func(s int32) int {
		switch {
		case s == ac.Root:
			return 0
		case t.Nodes[s].Depth == 1:
			return 1
		default:
			return 2
		}
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if ta, tb := tier(a), tier(b); ta != tb {
			return ta < tb
		}
		if pop[a] != pop[b] {
			return pop[a] > pop[b]
		}
		return a < b
	})
	for _, s := range order[:budget] {
		promoted[s] = true
	}
	return promoted
}

// denseCompile lays out the Program with every promoted state's 256-entry
// move row filled by Trie.Move, one fail-chain walk per (state, character)
// — the fast row is then wherever that row differs from d1, overrides in
// byte order. The match memory, arena and row index are the dense machine's
// own, and promotion moves a state's stored-row descriptor to displaced.
func denseCompile(m *Machine, t *ac.Trie, pop []int64) *Program {
	n := t.NumStates()
	maxDepth := m.Opts.MaxDepth
	for c := 0; c < 256; c++ {
		if maxDepth >= 2 && len(m.Defaults.D2[c]) > 4 {
			return nil
		}
		if maxDepth >= 3 && len(m.Defaults.D3[c]) > 1 {
			return nil
		}
	}
	promoted := densePromoted(m, t, pop)
	p := &Program{rows: m.rows, stored: m.stored, out: &m.out}
	for c := 0; c < 256; c++ {
		p.d1[c] = ac.Root
		if s := m.Defaults.D1[c]; s != ac.None {
			p.d1[c] = s
		}
		for j := range p.d2[c] {
			p.d2[c][j] = emptyD2Key
		}
		if maxDepth >= 2 {
			for j, e := range m.Defaults.D2[c] {
				p.d2[c][j] = uint64(e.Prev)<<32 | uint64(uint32(e.State))
			}
		}
		p.d3[c] = emptyD3Key
		if maxDepth >= 3 && len(m.Defaults.D3[c]) == 1 {
			e := m.Defaults.D3[c][0]
			key := uint64(e.Prev2)<<histLaneBits | uint64(e.Prev1)
			p.d3[c] = key<<32 | uint64(uint32(e.State))
		}
	}
	p.fast = []fastRow{}
	p.over = []int32{}
	var fastStates []int32
	for s := 0; s < n; s++ {
		if promoted[s] {
			fastStates = append(fastStates, int32(s))
		}
	}
	// Fast rows are numbered by depth, then by state.
	slices.SortStableFunc(fastStates, func(a, b int32) int {
		return cmp.Compare(t.Nodes[a].Depth, t.Nodes[b].Depth)
	})
	for _, s := range fastStates {
		m.displaced = append(m.displaced, p.rows[s])
		p.rows[s] = rowDense | uint32(len(p.fast))
		var dense [256]int32
		for c := range dense {
			dense[c] = t.Move(s, byte(c))
		}
		var row fastRow
		for c, to := range dense {
			if c%64 == 0 {
				row.rank[c/64] = uint32(len(p.over))
			}
			if to != p.d1[c] {
				row.bits[c/64] |= 1 << (c % 64)
				p.over = append(p.over, to)
			}
		}
		p.fast = append(p.fast, row)
	}
	return p
}

// checkSparseAgainstDense builds set both ways under opts — the dense way
// from a trie of its own — and demands the same machine, field for field,
// then proves it against the full DFA.
func checkSparseAgainstDense(t testing.TB, set *ruleset.Set, opts Options) {
	t.Helper()
	m, err := Build(set, opts)
	if err != nil {
		t.Fatal(err)
	}
	trie := mustTrie(t, set)
	want, pop := denseBuild(trie, opts)

	ft := newFailTree(trie)
	if !reflect.DeepEqual(ft.pop, pop) {
		t.Fatalf("%+v: popularity tally differs:\nsparse %v\ndense  %v", opts, ft.pop, pop)
	}
	if ft.original != want.Stats.OriginalPointers {
		t.Fatalf("%+v: %d original pointers, dense sweep counts %d", opts, ft.original, want.Stats.OriginalPointers)
	}
	if !reflect.DeepEqual(m.Defaults, want.Defaults) {
		t.Fatalf("%+v: defaults differ", opts)
	}
	if m.Stats != want.Stats {
		t.Fatalf("%+v: stats differ:\nsparse %+v\ndense  %+v", opts, m.Stats, want.Stats)
	}
	if m.NumStates() != trie.NumStates() {
		t.Fatalf("%+v: the machine has %d states, the trie %d", opts, m.NumStates(), trie.NumStates())
	}
	for s := int32(0); s < int32(trie.NumStates()); s++ {
		if got, want := decodeRow(m.StoredRow(s)), decodeRow(want.StoredRow(s)); !slices.Equal(got, want) {
			t.Fatalf("%+v: state %d stores %v, dense sweep %v", opts, s, got, want)
		}
		if row := m.StoredRow(s); len(row) != cap(row) {
			t.Fatalf("%+v: state %d's list can grow into its neighbour's (len %d, cap %d)",
				opts, s, len(row), cap(row))
		}
		if got, want := m.storedRef(s), want.storedRef(s); got != want {
			t.Fatalf("%+v: state %d's stored row is described by %#x, the dense sweep's by %#x", opts, s, got, want)
		}
	}
	if !slices.Equal(m.stored, want.stored) {
		t.Fatalf("%+v: the state memory is not the dense sweep's rows back to back in state order", opts)
	}
	if !reflect.DeepEqual(m.out, want.out) {
		t.Fatalf("%+v: the match memory is not the output chains walked state by state", opts)
	}
	if !reflect.DeepEqual(m.pickDense(trie, ft), densePromoted(want, trie, pop)) {
		t.Fatalf("%+v: dense-tier promotion differs", opts)
	}
	if wantProg := denseCompile(want, trie, pop); !reflect.DeepEqual(m.prog, wantProg) {
		t.Fatalf("%+v: Program differs from the dense layout (nil: sparse %v, dense %v)",
			opts, m.prog == nil, wantProg == nil)
	}
	if !slices.Equal(m.rows, want.rows) || !slices.Equal(m.displaced, want.displaced) {
		t.Fatalf("%+v: the row index or the displaced descriptors differ from the dense layout's", opts)
	}
	if err := m.VerifyTransitions(trie); err != nil {
		t.Fatalf("%+v: %v", opts, err)
	}
	if m.prog != nil {
		if err := m.VerifyProgram(trie); err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
	}
	if err := m.VerifyOutputs(trie); err != nil {
		t.Fatalf("%+v: %v", opts, err)
	}
}

// equivalenceRulesets are the shapes the recurrences could get wrong:
// wide and narrow alphabets, deep fail chains, patterns nested inside each
// other at both ends, single bytes (depth-1 outputs), sparse IDs.
var equivalenceRulesets = map[string]func(*rand.Rand) [][]byte{
	"uniform-binary": func(rng *rand.Rand) [][]byte {
		var out [][]byte
		for i := 0; i < 1+rng.Intn(60); i++ {
			p := make([]byte, 1+rng.Intn(8))
			rng.Read(p)
			out = append(out, p)
		}
		return out
	},
	"textual": func(rng *rand.Rand) [][]byte {
		var out [][]byte
		for i := 0; i < 1+rng.Intn(80); i++ {
			p := make([]byte, 1+rng.Intn(10))
			for j := range p {
				p[j] = byte('a' + rng.Intn(4))
			}
			out = append(out, p)
		}
		return out
	},
	"shared-suffix": func(rng *rand.Rand) [][]byte {
		suffixes := [][]byte{[]byte("abcab"), []byte("cab"), []byte("bcabc"), []byte("ab")}
		var out [][]byte
		for i := 0; i < 1+rng.Intn(60); i++ {
			p := make([]byte, rng.Intn(4))
			for j := range p {
				p[j] = byte('a' + rng.Intn(6))
			}
			out = append(out, append(p, suffixes[rng.Intn(len(suffixes))]...))
		}
		return out
	},
	"single-bytes": func(rng *rand.Rand) [][]byte {
		var out [][]byte
		for i := 0; i < 1+rng.Intn(40); i++ {
			out = append(out, []byte{byte('a' + rng.Intn(8))})
		}
		for i := 0; i < rng.Intn(20); i++ {
			p := make([]byte, 2+rng.Intn(4))
			for j := range p {
				p[j] = byte('a' + rng.Intn(8))
			}
			out = append(out, p)
		}
		return out
	},
	"nested": func(rng *rand.Rand) [][]byte {
		var out [][]byte
		for i := 0; i < 1+rng.Intn(6); i++ {
			long := make([]byte, 4+rng.Intn(8))
			for j := range long {
				long[j] = byte('a' + rng.Intn(3))
			}
			for k := 0; k < 8; k++ {
				lo := rng.Intn(len(long))
				hi := lo + 1 + rng.Intn(len(long)-lo)
				switch rng.Intn(3) {
				case 0:
					lo = 0 // a proper prefix
				case 1:
					hi = len(long) // a proper suffix
				}
				out = append(out, long[lo:hi])
			}
			out = append(out, long)
		}
		return out
	},
}

// setOf numbers the distinct patterns; sparse spreads the IDs over the
// whole 13-bit range instead of counting from zero.
func setOf(patterns [][]byte, sparse bool) *ruleset.Set {
	set := &ruleset.Set{}
	seen := map[string]bool{}
	for _, p := range patterns {
		if len(p) == 0 || seen[string(p)] {
			continue
		}
		seen[string(p)] = true
		id := len(set.Patterns)
		if sparse {
			id = 8190 - 13*id
		}
		set.Patterns = append(set.Patterns, ruleset.Pattern{ID: id, Data: bytes.Clone(p)})
	}
	return set
}

// TestSparseBuildMatchesDenseOracle is the standing proof that the
// O(states + edges) builder is a replacement, not an approximation: over
// random rulesets of every shape above and the whole option grid it must
// produce the very machine the dense sweep produces.
func TestSparseBuildMatchesDenseOracle(t *testing.T) {
	names := make([]string, 0, len(equivalenceRulesets))
	for name := range equivalenceRulesets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(14))
			trials := 6
			if testing.Short() {
				trials = 2
			}
			for trial := 0; trial < trials; trial++ {
				set := setOf(equivalenceRulesets[name](rng), trial%2 == 1)
				states := 1 + set.CharCount()
				for maxDepth := 1; maxDepth <= 3; maxDepth++ {
					for d2 := 1; d2 <= 4; d2++ {
						for d3 := 1; d3 <= 2; d3++ {
							for _, dense := range []int{-1, 0, 16, states} {
								checkSparseAgainstDense(t, set, Options{
									MaxDepth: maxDepth, D2PerChar: d2, D3PerChar: d3, DenseStates: dense,
								})
							}
						}
					}
				}
			}
		})
	}
}

// FuzzBuildEquivalence lets the fuzzer choose the pattern bytes: the input
// is cut into patterns at a separator chosen by its first byte, the next
// three pick the options.
func FuzzBuildEquivalence(f *testing.F) {
	f.Add([]byte("\x00\x03\x04\x01he\x00she\x00his\x00hers"))
	f.Add([]byte("|\x01\x01\x02ab|abab|bab|b|a|ba"))
	f.Add([]byte(",\x02\x02\x01aaaa,aaa,aa,a,baaa,caa"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 || len(data) > 4096 {
			return
		}
		sep, knobs, body := data[0], data[1:4], data[4:]
		set := setOf(bytes.Split(body, []byte{sep}), knobs[0]&0x80 != 0)
		if set.Len() == 0 {
			return
		}
		checkSparseAgainstDense(t, set, Options{
			MaxDepth:    1 + int(knobs[0])%3,
			D2PerChar:   1 + int(knobs[1])%4,
			D3PerChar:   1 + int(knobs[2])%2,
			DenseStates: []int{-1, 0, 16, 1 << 20}[int(knobs[1]>>2)%4],
		})
	})
}

// TestCompilePromotedWideState: a full row — one stored pointer per byte
// value, the most a state can hold — bakes on either tier: read through its
// fast row when promoted, through its descriptor's nine-bit count when not,
// and by the reference interpreter through the displaced descriptor. 256
// two-byte patterns share the first byte 'A'; each one's depth-2 default
// loses its lookup-table row to four rivals that longer patterns make more
// popular, so all 256 pointers stay stored at the depth-1 state.
func TestCompilePromotedWideState(t *testing.T) {
	var patterns [][]byte
	const first, rivals, boosters = 200, 4, 3
	for x := 0; x < 256; x++ {
		patterns = append(patterns, []byte{first, byte(x)})
		for r := 1; r <= rivals; r++ {
			patterns = append(patterns, []byte{first + byte(r), byte(x)})
		}
	}
	for r := 1; r <= rivals; r++ {
		for b := 0; b < boosters; b++ {
			patterns = append(patterns, []byte{byte(240 + b), first + byte(r)})
		}
	}
	m, err := Build(setOf(patterns, false), Options{})
	if err != nil {
		t.Fatal(err)
	}
	trie := mustTrie(t, setOf(patterns, false))
	wide := m.Defaults.D1[first]
	if got := len(m.StoredRow(wide)); got != 256 {
		t.Fatalf("the depth-1 state stores %d pointers; the case needs all 256", got)
	}
	if got := m.DefaultBackend(); got != BackendPrefiltered {
		t.Fatalf("auto resolves to %q, want %q", got, BackendPrefiltered)
	}
	driveLockstep(t, m, trie, rand.New(rand.NewSource(140)))
	if err := m.VerifyTransitions(trie); err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyProgram(trie); err != nil {
		t.Fatal(err)
	}
	desc := m.prog.rows[wide]
	if desc < rowDense {
		t.Fatalf("the depth-1 state is read through descriptor %#x, not a fast row", desc)
	}
	row := &m.prog.fast[desc-rowDense]
	if got := row.rank[3] + uint32(bits.OnesCount64(row.bits[3])) - row.rank[0]; got != 256 {
		t.Fatalf("the depth-1 state's fast row holds %d overrides, want 256", got)
	}
	for x := 0; x < 256; x++ {
		if got, want := row.move(byte(x), &m.prog.d1, m.prog.over), trie.Move(wide, byte(x)); got != want {
			t.Fatalf("byte %#02x steps to %d, the DFA to %d", x, got, want)
		}
	}

	// With the dense tier off the same state is compressed, and its
	// descriptor counts the whole row.
	csr, err := Build(setOf(patterns, false), Options{DenseStates: -1})
	if err != nil {
		t.Fatal(err)
	}
	if csr.Program() == nil || csr.rows[wide] != 256<<rowCountShift|csr.rows[wide]&rowOffMask {
		t.Fatalf("the compressed 256-pointer state is described by %#x (backend %q)", csr.rows[wide], csr.DefaultBackend())
	}
	if err := csr.VerifyProgram(trie); err != nil {
		t.Fatal(err)
	}
	driveLockstep(t, csr, trie, rand.New(rand.NewSource(141)))
}
