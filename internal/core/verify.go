package core

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/ac"
	"repro/internal/reassembly"
)

// Verify proves the machine against t, a trie built from the same ruleset
// independently of the machine, and runs it on payloads (each one packet;
// may be nil): every part of verifyParts in order — the match memory, the
// reference and baked scan loops on every (state, byte), the prefilter's
// superset contract, and every backend's scan and fold of the payloads.
func (m *Machine) Verify(t *ac.Trie, payloads [][]byte) error {
	for _, part := range verifyParts {
		if err := part.prove(m, t, payloads); err != nil {
			return err
		}
	}
	return nil
}

// verifyParts are Verify's proofs, in the order it runs them: the match
// memory first, as the loop proofs read it to know what a byte must emit.
// Each also runs alone: it checks every index it follows first, the parts
// that run a scan loop through verifyRanges.
var verifyParts = []struct {
	name  string
	prove func(m *Machine, t *ac.Trie, payloads [][]byte) error
}{
	{"verifyOutputs", func(m *Machine, t *ac.Trie, _ [][]byte) error { return m.verifyOutputs(t) }},
	{"verifyTransitions", func(m *Machine, t *ac.Trie, _ [][]byte) error { return m.verifyTransitions(t) }},
	{"verifyProgram", func(m *Machine, t *ac.Trie, _ [][]byte) error { return m.verifyProgram(t) }},
	{"verifySuperset", func(m *Machine, t *ac.Trie, _ [][]byte) error { return m.pre.verifySuperset(t) }},
	{"verifyScan", (*Machine).verifyScan},
	{"verifyFold", (*Machine).verifyFold},
}

// verifyTransitions proves structural equivalence between the compressed
// machine and the full move-function DFA of t: for every state s and every
// character c, the hardware transition (stored pointer if present,
// otherwise the default rule under s's statically known history), taken by
// the reference scan loop itself on the one-byte input c (proveLoop), must
// equal the DFA's move target. Combined with the depth ≤ 1 feasibility
// argument (see the package comment) this implies the two machines accept
// identical transition sequences on all inputs. That argument needs every default to
// be the state its row and key spell — row c's depth-1 default the state
// labeled c, a depth-2 default the path Prev·c, a depth-3 default
// Prev2·Prev1·c — which the walk first checks row by row, reading the
// table through LookupRow.
//
// The walk covers |states| × 256 transitions; for the full 6,275-string
// machine that is ≈28M checks, a few seconds of CPU.
func (m *Machine) verifyTransitions(t *ac.Trie) error {
	if err := m.verifyRanges(t); err != nil {
		return err
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
	return m.proveLoop(t, kindReference)
}

// verifyRanges checks, before any loop reads the tables, that every index
// they follow lands inside the machine, so a proof errs where a loop would
// panic: the tables have a row descriptor and an output bit for each of t's
// states and a displaced descriptor for each fast row, each fast-row number
// has a fast row, each arena row lies inside the arena, each fast row's
// overrides lie in over — its base runs on from the row before, its cum
// from 0 through its own words' popcounts, and the last row ends at
// len(over) — every target — of a stored pointer, in the arena or in a
// descriptor, of a fast-row override, and of a d1, d2 or d3 default — is a
// state the machine has, every output state's slot and list lie in the
// match memory, and every prefilter entry in its table (verifyEntries).
func (m *Machine) verifyRanges(t *ac.Trie) error {
	n, o := uint32(len(m.rows)), &m.out
	if int(n) != t.NumStates() || len(m.displaced) != len(m.fast) || len(o.bits) != (t.NumStates()+63)>>6 || len(o.rank) != len(o.bits) {
		return fmt.Errorf("core: %d row descriptors, %d displaced for %d fast rows and %d output words for the trie's %d states: not the same ruleset",
			n, len(m.displaced), len(m.fast), len(o.bits), t.NumStates())
	}
	for s, ref := range m.rows {
		if ref >= rowDense && int(ref-rowDense) >= len(m.fast) {
			return fmt.Errorf("core: state %d reads fast row %d of %d", s, ref-rowDense, len(m.fast))
		}
		if ref := *m.storedRef(int32(s)); ref < rowInline && int(ref&rowOffMask+ref>>rowCountShift) > len(m.stored) {
			return fmt.Errorf("core: state %d's descriptor reads %d entries at %d of the arena's %d", s, ref>>rowCountShift, ref&rowOffMask, len(m.stored))
		}
		for _, p := range m.StoredRow(int32(s)) {
			if uint32(p.To()) >= n {
				return fmt.Errorf("core: state %d stores a pointer on %#02x to state %d of %d", s, p.Char(), p.To(), n)
			}
		}
	}
	overrides := 0
	for i := range m.fast {
		row := &m.fast[i]
		if int(row.base) != overrides {
			return fmt.Errorf("core: fast row %d's overrides start at %d, %d precede it", i, row.base, overrides)
		}
		for w, word := range row.bits {
			if own := overrides - int(row.base); int(row.cum[w]) != own {
				return fmt.Errorf("core: fast row %d word %d counts %d of the row's overrides below it, %d are", i, w, row.cum[w], own)
			}
			if overrides += bits.OnesCount64(word); overrides > len(m.over) {
				return fmt.Errorf("core: fast row %d word %d runs past the %d overrides stored", i, w, len(m.over))
			}
		}
	}
	if overrides != len(m.over) {
		return fmt.Errorf("core: fast rows mark %d overrides, %d are stored", overrides, len(m.over))
	}
	for i, to := range m.over {
		if uint32(to) >= n {
			return fmt.Errorf("core: fast-row override %d leads to state %d of %d", i, to, n)
		}
	}
	l := &m.lut
	for c := range 256 {
		if uint32(l.d1[c]) >= n {
			return fmt.Errorf("core: lookup row %#02x has depth-1 default %d of %d states", c, l.d1[c], n)
		}
		for j, e := range l.d2[c] {
			if uint32(d2To(e)) >= n {
				return fmt.Errorf("core: lookup row %#02x has depth-2 default %d to state %d of %d", c, j, d2To(e), n)
			}
		}
		if uint32(l.d3[c]) >= n {
			return fmt.Errorf("core: lookup row %#02x has depth-3 default %d of %d states", c, uint32(l.d3[c]), n)
		}
	}
	for w, word := range o.bits {
		if int(o.rank[w])+bits.OnesCount64(word) > len(o.off) {
			return fmt.Errorf("core: output word %d ranks states past the %d slots", w, len(o.off))
		}
	}
	if i := slices.IndexFunc(o.off, func(at uint32) bool { return int(at) >= len(o.ids) }); i >= 0 {
		return fmt.Errorf("core: output slot %d starts at %d of %d IDs", i, o.off[i], len(o.ids))
	}
	return m.pre.verifyEntries()
}

// verifyProgram proves the baked loop's transition tables — fast rows,
// compressed-row descriptors and the d1/d2/d3 lookup, read in the loop's
// own encoding by the loop itself — against t's full move-function DFA:
// from every state, under its static history, every byte must step to the
// DFA's target (proveLoop). verifyTransitions proves the same of the
// reference loop; this is the proof of what production scans with, the
// prefiltered backend's suspect windows included. It first checks that
// every index lands in its table (verifyRanges) and the structure the step
// relies on without testing: every promoted state has its own fast row;
// the arena rows, promoted states' included, tile the arena in state
// order, each row sorted by character; and no override repeats the default
// it overrides.
func (m *Machine) verifyProgram(t *ac.Trie) error {
	if err := m.verifyRanges(t); err != nil {
		return err
	}
	fastRows := 0
	owned := make([]bool, len(m.fast))
	at := uint32(0) // where the next arena row must begin
	for s, ref := range m.rows {
		if ref >= rowDense {
			i := ref - rowDense
			if owned[i] {
				return fmt.Errorf("core: state %d reads fast row %d, which is not its own", s, i)
			}
			owned[i] = true
			fastRows++
		}
		row := m.StoredRow(int32(s))
		if ref := *m.storedRef(int32(s)); ref < rowInline {
			if off := ref & rowOffMask; off != at {
				return fmt.Errorf("core: state %d's arena row begins at %d, the row before it ends at %d", s, off, at)
			}
			at += uint32(len(row))
		}
		for i := 1; i < len(row); i++ {
			if row[i-1].Char() >= row[i].Char() {
				return fmt.Errorf("core: state %d's stored row is not sorted by character at entry %d", s, i)
			}
		}
	}
	if int(at) != len(m.stored) {
		return fmt.Errorf("core: the rows cover %d of the arena's %d entries", at, len(m.stored))
	}
	if fastRows != len(m.fast) {
		return fmt.Errorf("core: %d fast rows for %d promoted states", len(m.fast), fastRows)
	}
	for i := range m.fast {
		row := &m.fast[i]
		at := int(row.base)
		for w, word := range row.bits {
			for ; word != 0; word, at = word&(word-1), at+1 {
				if c := w<<6 | bits.TrailingZeros64(word); m.over[at] == m.lut.d1[c] {
					return fmt.Errorf("core: fast row %d overrides char %#02x with the default %d", i, c, m.lut.d1[c])
				}
			}
		}
	}
	return m.proveLoop(t, kindBaked)
}

// proveLoop runs backend k's scan loop on the one-byte input c from every
// state s of t, its registers holding s and s's static history, and holds
// what the loop leaves to t's full move-function DFA: the registers at the
// DFA's target with c shifted into the history and the position at 1, and
// exactly the target's match list emitted, ending at 1.
func (m *Machine) proveLoop(t *ac.Trie, k backendKind) error {
	var firstErr error
	var got, want []ac.Match
	t.ForEachMoveRow(func(s int32, row []int32) {
		if firstErr != nil {
			return
		}
		hist := fuseHist(staticHistory(t, s))
		for c := 0; c < 256; c++ {
			r, in := Regs{state: s, hist: hist}, [1]byte{byte(c)}
			got = m.scanAs(k, &r, in[:], got[:0])
			if want = want[:0]; m.out.has(row[c]) {
				want = m.out.appendTo(row[c], 1, want)
			}
			if r != (Regs{pos: 1, state: row[c], hist: (hist<<histLaneBits | uint32(c)) & histMask}) || !slices.Equal(got, want) {
				firstErr = fmt.Errorf(
					"core: state %d (depth %d) char %#02x: the %s loop steps to %+v with %d matches, the DFA to state %d with %d",
					s, t.Nodes[s].Depth, c, scanBackends[k], r, len(got), row[c], len(want))
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
// pulled into this proof automatically.
func (m *Machine) verifyScan(t *ac.Trie, payloads [][]byte) error {
	if err := m.verifyRanges(t); err != nil {
		return err
	}
	for i, p := range payloads {
		want := t.FindAll(p)
		for _, k := range m.kinds() {
			var r Regs
			r.Reset()
			if got := m.scanAs(k, &r, p, nil); !ac.MatchesEqual(got, want) {
				return fmt.Errorf("core: payload %d (%d bytes): backend %s found %d matches, DFA %d",
					i, len(p), scanBackends[k], len(got), len(want))
			}
		}
	}
	return nil
}

// verifyFold proves Fold, Resume and Join on every backend the machine
// supports. Depth must be t's longest pattern and the window filter must
// pass its proof (windowFilter.prove): the premises of the fold. Then each
// piece — every payload, t's longest pattern spelled twice over, from its
// second and middle byte on, less its last byte, and its last two bytes
// before a window no pattern contains, so a pattern straddles or ends the
// prefix or opens the piece part-way through — is folded, and resumed from
// the registers each piece's own scan ends in: that must leave exactly the
// registers, and append exactly the matches, that scanning the piece on
// from there does. Forms are kept here even where Fold would keep the piece
// whole, so every piece with a fold point is proved. Then pieces are joined,
// each held whole and, where Fold keeps one, as its form — each payload
// before and after each of the pattern's pieces, those among themselves,
// and each payload before the next, wherever the left is at least a byte,
// as Join asks: the join must be byte for byte Fold's form of the two
// pieces as one, or refused where Fold keeps that whole, and must resume as
// it does after each of the pattern's pieces.
func (m *Machine) verifyFold(t *ac.Trie, payloads [][]byte) error {
	if err := m.verifyRanges(t); err != nil {
		return err
	}
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
	for _, kind := range m.kinds() {
		befores := make([]Regs, len(pieces)) // where each piece's own scan ends
		for j, q := range pieces {
			befores[j].Reset()
			m.scanAs(kind, &befores[j], q, nil)
		}
		held := make([][][]byte, len(pieces)) // each piece whole, then its form if Fold keeps one
		for i, p := range pieces {
			held[i] = [][]byte{p}
			if form, _ := m.foldAs(kind, nil, p, nil, len(p)); form != nil {
				held[i] = append(held[i], form)
			}
			form, _ := m.foldAs(kind, nil, p, nil, math.MaxInt)
			if form == nil || len(form) == len(p) { // one as long as its piece would read as the piece
				continue
			}
			if err := m.proveResume(kind, p, form, befores); err != nil {
				return fmt.Errorf("core: backend %s: piece %d %w", scanBackends[kind], i, err)
			}
		}
		var pairs [][2]int
		for i := range pieces {
			for j := len(payloads); j < len(pieces); j++ {
				pairs = append(pairs, [2]int{i, j}, [2]int{j, i})
			}
		}
		for i := 1; i < len(payloads); i++ {
			pairs = append(pairs, [2]int{i - 1, i})
		}
		for _, pr := range pairs {
			if len(pieces[pr[0]]) == 0 {
				continue // Join's left is at least a byte
			}
			for _, lf := range held[pr[0]] {
				for _, rf := range held[pr[1]] {
					if err := m.proveJoin(kind, pieces[pr[0]], pieces[pr[1]], lf, rf, befores[len(payloads):]); err != nil {
						return fmt.Errorf("core: backend %s: piece %d joined to piece %d %w", scanBackends[kind], pr[0], pr[1], err)
					}
				}
			}
		}
	}
	return nil
}

// proveResume checks that piece, held as form, resumes after each of befores
// to the registers and matches a scan of the piece from there gives.
func (m *Machine) proveResume(k backendKind, piece, form []byte, befores []Regs) error {
	for j, from := range befores {
		want, got := from, from
		wantM := m.scanAs(k, &want, piece, nil)
		gotM := m.resumeAs(k, &got, form, len(piece), nil)
		if got != want || !slices.Equal(gotM, wantM) {
			return fmt.Errorf("(%d bytes, held in %d) resumed after piece %d ends in %+v with %d matches, scanned whole in %+v with %d",
				len(piece), len(form), j, got, len(gotM), want, len(wantM))
		}
	}
	return nil
}

// proveJoin checks that l and r, held as lf and rf (each a Fold form or the
// piece itself), join into exactly Fold's form of l then r, or into none
// where Fold keeps that whole, and that the joined form resumes after each
// of befores as the two pieces scan.
func (m *Machine) proveJoin(k backendKind, l, r, lf, rf []byte, befores []Regs) error {
	whole := slices.Concat(l, r)
	want, _ := m.foldAs(k, nil, whole, nil, len(whole))
	s, _, _ := m.joinAs(k, nil, lf, len(l), rf, len(r), nil)
	got := joined(s, lf, rf)
	if !bytes.Equal(got, want) {
		return fmt.Errorf("(%d and %d bytes, held in %d and %d) join into %d bytes, Fold of both folds them into %d",
			len(l), len(r), len(lf), len(rf), len(got), len(want))
	}
	if got == nil {
		return nil
	}
	return m.proveResume(k, whole, got, befores)
}

// joined is the form s tells over the residents left and right; nil for the
// zero Seam.
func joined(s reassembly.Seam, left, right []byte) []byte {
	if s.Keep == 0 {
		return nil
	}
	return slices.Concat(left[:s.Keep], s.Mid, right[s.Skip:s.Cut], s.End)
}
