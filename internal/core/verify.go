package core

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/ac"
)

// VerifyTransitions proves structural equivalence between the compressed
// machine and the full move-function DFA of t: for every state s and every
// character c, the hardware transition (stored pointer if present,
// otherwise the default rule under s's statically known history) must equal
// the DFA's move target. Combined with the depth ≤ 1 feasibility argument
// (see the package comment) this implies the two machines accept identical
// transition sequences on all inputs. That argument needs every default to
// be the state its row and key spell — row c's depth-1 default the state
// labeled c, a depth-2 default the path Prev·c, a depth-3 default
// Prev2·Prev1·c — which the walk first checks row by row, reading the
// table through LookupRow.
//
// The walk covers |states| × 256 transitions; for the full 6,275-string
// machine that is ≈28M checks, a few seconds of CPU.
func (m *Machine) VerifyTransitions(t *ac.Trie) error {
	if t.NumStates() != m.NumStates() {
		return fmt.Errorf("core: the oracle trie has %d states, the machine %d: not the same ruleset", t.NumStates(), m.NumStates())
	}
	spells := func(s int32, path ...byte) bool {
		at := ac.Root
		for _, c := range path {
			at = t.Move(at, c)
		}
		return at == s && int(t.Nodes[s].Depth) == len(path)
	}
	for c := 0; c < 256; c++ {
		ch := byte(c)
		row := m.LookupRow(ch)
		if want := t.Move(ac.Root, ch); row.D1 != want && (row.D1 != ac.None || want != ac.Root) {
			return fmt.Errorf("core: lookup row %#02x has depth-1 default %d, the trie's depth-1 state is %d", c, row.D1, want)
		}
		for _, e := range row.D2 {
			if !spells(e.State, e.Prev, ch) {
				return fmt.Errorf("core: lookup row %#02x has depth-2 default %d keyed %#02x, not that path", c, e.State, e.Prev)
			}
		}
		for _, e := range row.D3 {
			if !spells(e.State, e.Prev2, e.Prev1, ch) {
				return fmt.Errorf("core: lookup row %#02x has depth-3 default %d keyed %#02x%02x, not that path", c, e.State, e.Prev2, e.Prev1)
			}
		}
	}
	var firstErr error
	t.ForEachMoveRow(func(s int32, row []int32) {
		if firstErr != nil {
			return
		}
		h2, h1 := staticHistory(t, s)
		for c := 0; c < 256; c++ {
			got := m.Next(s, byte(c), h2, h1)
			if got != row[c] {
				firstErr = fmt.Errorf(
					"core: state %d (depth %d) char %#02x: compressed machine gives %d, DFA gives %d",
					s, t.Nodes[s].Depth, c, got, row[c])
				return
			}
		}
	})
	return firstErr
}

// VerifyProgram proves the baked kernel's transition tables — fast rows,
// compressed-row descriptors and the d1/d2/d3 lookup, read in the kernel's
// own encoding by the kernel's own step — against t's full move-function
// DFA: from every state, under its static history, every byte must step to
// the DFA's target. VerifyTransitions proves the same of the reference
// interpreter; this is the proof of what production scans with. It first
// checks the structure the step relies on without testing: the kernel reads
// the machine's own lookup table, row index and arena; every promoted state has its own
// fast row, and one displaced descriptor per fast row; the stored-row
// descriptors, promoted states' included, tile the arena in state order,
// each row sorted by character; a fast row's ranks run on from the row
// before through its own popcounts to end at len(over); and no override
// repeats the default it overrides.
func (m *Machine) VerifyProgram(t *ac.Trie) error {
	p := m.prog
	if p == nil {
		return fmt.Errorf("core: no baked kernel compiled for this machine")
	}
	n := t.NumStates()
	if len(p.rows) != n {
		return fmt.Errorf("core: kernel has %d row descriptors for %d states", len(p.rows), n)
	}
	if p.lut != &m.lut || &p.rows[0] != &m.rows[0] || len(p.stored) != len(m.stored) || (len(p.stored) > 0 && &p.stored[0] != &m.stored[0]) {
		return fmt.Errorf("core: the kernel reads a lookup table, row index or arena that is not the machine's")
	}
	if len(m.displaced) != len(p.fast) {
		return fmt.Errorf("core: %d displaced descriptors for %d fast rows", len(m.displaced), len(p.fast))
	}
	fastRows := 0
	owned := make([]bool, len(p.fast))
	at := uint32(0) // where the next state's stored row must begin
	for s, ref := range p.rows {
		if ref >= rowDense {
			i := int(ref - rowDense)
			if i >= len(owned) || owned[i] {
				return fmt.Errorf("core: state %d reads fast row %d of %d, which is not its own", s, i, len(owned))
			}
			owned[i] = true
			fastRows++
		}
		ref = m.storedRef(int32(s))
		if off, cnt := ref&rowOffMask, ref>>rowCountShift; off != at || int(off+cnt) > len(m.stored) {
			return fmt.Errorf("core: state %d's descriptor reads %d entries at %d, its row begins at %d of %d",
				s, cnt, off, at, len(m.stored))
		}
		row := m.StoredRow(int32(s))
		for i := 1; i < len(row); i++ {
			if row[i-1].Char() >= row[i].Char() {
				return fmt.Errorf("core: state %d's stored row is not sorted by character at entry %d", s, i)
			}
		}
		at += uint32(len(row))
	}
	if int(at) != len(m.stored) {
		return fmt.Errorf("core: the rows cover %d of the arena's %d entries", at, len(m.stored))
	}
	if fastRows != len(p.fast) {
		return fmt.Errorf("core: %d fast rows for %d promoted states", len(p.fast), fastRows)
	}
	overrides := 0
	for i := range p.fast {
		row := &p.fast[i]
		for w, word := range row.bits {
			if int(row.rank[w]) != overrides {
				return fmt.Errorf("core: fast row %d word %d has rank %d, %d overrides precede it", i, w, row.rank[w], overrides)
			}
			if overrides += bits.OnesCount64(word); overrides > len(p.over) {
				return fmt.Errorf("core: fast row %d word %d runs past the %d overrides stored", i, w, len(p.over))
			}
			for at := int(row.rank[w]); word != 0; word, at = word&(word-1), at+1 {
				if c := w<<6 | bits.TrailingZeros64(word); p.over[at] == p.lut.d1[c] {
					return fmt.Errorf("core: fast row %d overrides char %#02x with the default %d", i, c, p.lut.d1[c])
				}
			}
		}
	}
	if overrides != len(p.over) {
		return fmt.Errorf("core: fast rows mark %d overrides, %d are stored", overrides, len(p.over))
	}

	var firstErr error
	t.ForEachMoveRow(func(s int32, row []int32) {
		if firstErr != nil {
			return
		}
		hist := fuseHist(staticHistory(t, s))
		for c := 0; c < 256; c++ {
			if got, _ := p.step(s, hist, byte(c)); got != row[c] {
				firstErr = fmt.Errorf(
					"core: state %d (depth %d) char %#02x: baked kernel gives %d, DFA gives %d",
					s, t.Nodes[s].Depth, c, got, row[c])
				return
			}
		}
	})
	return firstErr
}

// VerifyOutputs proves the match memory — the one table every backend emits
// from, reference included — against t's output chains: for every state, the
// bitset says whether anything ends there exactly as Trie.HasOutput does,
// and where it does the table's contiguous list equals Trie.AppendOutputs —
// own outputs and each fail-ancestor's — sorted by pattern ID, element for
// element. It also checks that the table has a slot for each output state
// and no other, so a state with a clear bit has no rank to look up.
func (m *Machine) VerifyOutputs(t *ac.Trie) error {
	p := &m.out
	if m.prog != nil && m.prog.out != p {
		return fmt.Errorf("core: the baked kernel emits from a table that is not the machine's match memory")
	}
	var got, want []ac.Match
	rank := 0
	for s := int32(0); s < int32(t.NumStates()); s++ {
		w, bit := uint32(s)>>6, uint64(1)<<(uint32(s)&63)
		if s&63 == 0 && int(p.rank[w]) != rank {
			return fmt.Errorf("core: output word %d has prefix count %d, %d output states precede it", w, p.rank[w], rank)
		}
		want = t.AppendOutputs(s, int(s), want[:0])
		slices.SortFunc(want, func(a, b ac.Match) int { return cmp.Compare(a.PatternID, b.PatternID) })
		if p.bits[w]&bit == 0 {
			if len(want) != 0 {
				return fmt.Errorf("core: state %d ends %d patterns but its output bit is clear", s, len(want))
			}
			continue
		}
		if len(want) == 0 {
			return fmt.Errorf("core: state %d ends no pattern but its output bit is set", s)
		}
		if rank+1 >= len(p.off) {
			return fmt.Errorf("core: output state %d has rank %d, the table holds %d", s, rank, len(p.off)-1)
		}
		got = p.appendTo(s, int(s), got[:0])
		if !slices.Equal(got, want) {
			return fmt.Errorf("core: state %d: the table emits %v, the trie's output chain %v", s, got, want)
		}
		rank++
	}
	if len(p.off) != rank+1 || int(p.off[rank]) != len(p.ids) {
		return fmt.Errorf("core: output table has %d slots over %d IDs, the bitset marks %d output states",
			len(p.off)-1, len(p.ids), rank)
	}
	return nil
}

// VerifyScan cross-checks matcher output against the uncompressed DFA t on
// the given payloads (each treated as one packet). Every backend the
// machine supports (Backends: reference, baked, prefiltered, …) is run
// against the oracle, so a layout bug in one kernel cannot hide behind
// another implementation's semantics. A backend added to the registry is
// pulled into this proof automatically.
func (m *Machine) VerifyScan(t *ac.Trie, payloads [][]byte) error {
	backends := m.Backends()
	for i, p := range payloads {
		want := t.FindAll(p)
		for _, name := range backends {
			sc, err := m.NewScannerFor(name)
			if err != nil {
				return fmt.Errorf("core: payload %d: backend %s: %w", i, name, err)
			}
			got := sc.ScanAppend(p, nil)
			if !ac.MatchesEqual(got, want) {
				return fmt.Errorf("core: payload %d (%d bytes): backend %s found %d matches, DFA %d",
					i, len(p), name, len(got), len(want))
			}
		}
	}
	return nil
}
