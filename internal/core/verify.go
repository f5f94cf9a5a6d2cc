package core

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/ac"
)

// Verify proves the machine against t, a trie built from the same ruleset
// independently of the machine, and runs it on payloads (each one packet;
// may be nil). It runs every part that applies to the machine: the
// reference interpreter's every (state, byte) against the DFA
// (verifyTransitions), the baked kernel's own step the same way
// (verifyProgram), the match memory against the output chains
// (verifyOutputs), the prefilter's no-false-negative contract
// (verifySuperset), and every backend's scan of the payloads against the
// DFA's (verifyScan), and its fold of them (verifyFold).
func (m *Machine) Verify(t *ac.Trie, payloads [][]byte) error {
	parts := []func(*ac.Trie) error{m.verifyTransitions, m.verifyOutputs}
	if m.prog != nil {
		parts = append(parts, m.verifyProgram)
	}
	if m.pre != nil {
		parts = append(parts, m.verifySuperset)
	}
	for _, verify := range parts {
		if err := verify(t); err != nil {
			return err
		}
	}
	return m.verifyScan(t, payloads)
}

// verifyTransitions proves structural equivalence between the compressed
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
func (m *Machine) verifyTransitions(t *ac.Trie) error {
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

// verifyProgram proves the baked kernel's transition tables — fast rows,
// compressed-row descriptors and the d1/d2/d3 lookup, read in the kernel's
// own encoding by the kernel's own step — against t's full move-function
// DFA: from every state, under its static history, every byte must step to
// the DFA's target. verifyTransitions proves the same of the reference
// interpreter; this is the proof of what production scans with. It first
// checks the structure the step relies on without testing: the kernel reads
// the machine's own lookup table, row index and arena; every promoted state has its own
// fast row, and one displaced descriptor per fast row; the stored-row
// descriptors, promoted states' included, tile the arena in state order,
// each row sorted by character; a fast row's ranks run on from the row
// before through its own popcounts to end at len(over); and no override
// repeats the default it overrides.
func (m *Machine) verifyProgram(t *ac.Trie) error {
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

// verifyOutputs proves the match memory — the one table every backend emits
// from, reference included — against t's output chains: for every state, the
// bitset says whether anything ends there exactly as Trie.HasOutput does,
// and where it does the list its slot addresses, read up to the last flag,
// equals Trie.AppendOutputs — own outputs and each fail-ancestor's — sorted
// by pattern ID, element for element. It also checks that the table has a
// slot for each output state and no other, so a state with a clear bit has
// no rank to look up.
func (m *Machine) verifyOutputs(t *ac.Trie) error {
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
		if rank >= len(p.off) {
			return fmt.Errorf("core: output state %d has rank %d, the table holds %d", s, rank, len(p.off))
		}
		got = got[:0]
		for at := p.off[rank]; ; at++ {
			if int(at) >= len(p.ids) {
				return fmt.Errorf("core: state %d's list runs off the table with no last flag", s)
			}
			got = append(got, ac.Match{PatternID: int32(p.ids[at] &^ LastMatch), End: int(s)})
			if p.ids[at]&LastMatch != 0 {
				break
			}
		}
		if !slices.Equal(got, want) {
			return fmt.Errorf("core: state %d: the table emits %v, the trie's output chain %v", s, got, want)
		}
		rank++
	}
	if len(p.off) != rank {
		return fmt.Errorf("core: output table has %d slots, the bitset marks %d output states", len(p.off), rank)
	}
	return nil
}

// verifyScan cross-checks matcher output against the uncompressed DFA t on
// the given payloads (each treated as one packet). Every backend the
// machine supports (Backends: reference, baked, prefiltered, …) is run
// against the oracle, so a layout bug in one kernel cannot hide behind
// another implementation's semantics. A backend added to the registry is
// pulled into this proof automatically. It then proves the fold on the
// same backends (verifyFold).
func (m *Machine) verifyScan(t *ac.Trie, payloads [][]byte) error {
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
	return m.verifyFold(t, payloads)
}

// verifyFold proves Fold and Resume on every backend the machine supports.
// Depth must be t's longest pattern and the window filter must pass Build's
// proof: the premises of the fold. Then each piece — every payload, t's
// longest pattern spelled twice over, from its second and middle byte on,
// less its last byte, and its last two bytes before a window no pattern
// contains, so a pattern straddles or ends the prefix or opens the piece
// part-way through — is folded, and resumed from the registers each piece's
// own scan ends in: that must leave exactly the registers, and append
// exactly the matches, that scanning the piece on from there does. Forms
// are kept here even where Fold would keep the piece whole, so every piece
// with a fold point is proved.
func (m *Machine) verifyFold(t *ac.Trie, payloads [][]byte) error {
	s := deepest(t)
	if d := int(t.Nodes[s].Depth); m.depth != d {
		return fmt.Errorf("core: the machine folds after %d bytes, its longest pattern has %d", m.depth, d)
	}
	if err := m.windows.prove(t); err != nil {
		return err
	}
	longest := make([]byte, m.depth)
	for i := len(longest) - 1; i >= 0; i, s = i-1, t.Nodes[s].Parent {
		longest[i] = t.Nodes[s].Char
	}
	twice := append(slices.Clone(longest), longest...)
	pieces := append(slices.Clip(payloads), twice, longest[:max(len(longest)-1, 0)], twice[min(1, len(longest)):], twice[len(longest)/2:])
	for c := 0; len(longest) >= 3 && c < 256; c++ {
		if d := len(longest); m.windows.absent(longest[d-2], longest[d-1], byte(c)) {
			pieces, c = append(pieces, longest[:d-2], append(slices.Clone(longest[d-2:]), byte(c))), 256 // which ends the loop
		}
	}
	for k, spec := range scanBackends {
		if !spec.available(m) {
			continue
		}
		kind := backendKind(k)
		for i, p := range pieces {
			form, _ := m.foldAs(kind, nil, p, nil, math.MaxInt)
			if form == nil || len(form) == len(p) { // one as long as its piece would read as the piece
				continue
			}
			for j, q := range pieces {
				var from Regs
				from.Reset()
				m.scanAs(kind, &from, q, nil)
				want, got := from, from
				wantM := m.scanAs(kind, &want, p, nil)
				gotM := m.resumeAs(kind, &got, form, len(p), nil)
				if got != want || !slices.Equal(gotM, wantM) {
					return fmt.Errorf("core: backend %s: piece %d (%d bytes) folded and resumed after piece %d ends in %+v with %d matches, scanned whole in %+v with %d",
						spec.name, i, len(p), j, got.registers(), len(gotM), want.registers(), len(wantM))
				}
			}
		}
	}
	return nil
}
