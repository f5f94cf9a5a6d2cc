package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ac"
	"repro/internal/ruleset"
)

// TestFoldResumeEqualsScan: at the paper's ruleset sizes, on every
// registered backend, a piece folded on its own and resumed from a stream's
// registers leaves exactly the registers, and appends exactly the matches,
// that scanning the piece on from those registers does. The pieces are
// random noise of D and D+1 bytes, ASCII noise of D and 4·D, the longest
// pattern alone and from its middle on, and the longest pattern at
// every offset from the piece's start to D and past it, so it ends inside
// the prefix, straddles the fold point or lies wholly after it; the streams
// before them end in the start state, on random bytes, or part-way through
// that same pattern, so one straddles the piece's start too. Then each
// suffix of the longest pattern begins a piece after a stream that ends in
// the bytes before it: the piece opens in the middle of a pattern, where
// its first windows are substrings but no prefix of one — once followed by
// ASCII noise, and once by a byte that makes a window no pattern contains
// with the pattern's last two, so the prefix ends on the pattern's last
// byte and only its rescan finds the match. Depth is the
// longest pattern's length, Fold keeps a form only when it is shorter than
// its piece, appending it to a reused buffer without allocating, and holds
// a piece of 2¹⁹ bytes whole.
func TestFoldResumeEqualsScan(t *testing.T) {
	for _, n := range []int{634, 6275} {
		m, fp := newFoldPieces(t, n)
		longest, d, noise := fp.longest, fp.d, fp.noise
		befores, pieces, middles := fp.befores, fp.pieces, fp.middles
		for _, name := range RegisteredBackends() {
			t.Run(fmt.Sprintf("%d/%s", n, name), func(t *testing.T) {
				k := kindOf(t, m, name)
				resumes := func(p []byte, befores ...[]byte) bool {
					form, _ := m.foldAs(k, nil, p, nil, math.MaxInt)
					if short, _ := m.foldAs(k, nil, p, nil, len(p)); (short != nil) != (form != nil && len(form) < len(p)) {
						t.Fatalf("a %d-byte piece folds to %d bytes, or to %d where its form is kept only shorter", len(p), len(form), len(short))
					}
					if form == nil || len(form) == len(p) {
						return false // it would read as the piece itself; Fold never keeps one
					}
					for j, before := range befores {
						var from Regs
						from.Reset()
						m.scanAs(k, &from, before, nil)
						want, got := from, from
						wantM := m.scanAs(k, &want, p, nil)
						gotM := m.resumeAs(k, &got, form, len(p), nil)
						if got != want {
							t.Fatalf("%d-byte piece after stream %d: resumed to %+v, scanned to %+v", len(p), j, got, want)
						}
						if !slices.Equal(gotM, wantM) {
							t.Fatalf("%d-byte piece after stream %d: resumed with matches %v, scanned with %v", len(p), j, gotM, wantM)
						}
					}
					return true
				}
				folded := 0
				for _, p := range pieces {
					if resumes(p, befores...) {
						folded++
					}
				}
				for _, o := range middles {
					if resumes(o.piece, o.before) {
						folded++
					}
				}
				// The longest pattern alone has no byte past its prefix, and
				// a form may come out exactly as long as its piece.
				if total := len(pieces) + len(middles); folded < total-2 {
					t.Fatalf("only %d of %d pieces proved", folded, total)
				}
				if form, _ := m.foldAs(k, nil, noise(foldMaxPiece), nil, math.MaxInt); form != nil {
					t.Fatalf("a piece of 2^19 bytes folds to %d bytes: a run that long is held whole", len(form))
				}
			})
		}

		sparse := slices.Concat(longest, noise(4*d))
		form, scratch := m.Fold(nil, sparse, nil)
		if form == nil || len(form) >= len(sparse) || FoldPrefix(form) != d {
			t.Fatalf("%d strings: a %d-byte piece opening with the longest pattern folds to %d bytes", n, len(sparse), len(form))
		}
		if form, _ := m.Fold(nil, longest, scratch); form != nil {
			t.Fatalf("%d strings: the longest pattern alone folds", n)
		}
		if form, _ := m.Fold(nil, slices.Concat(longest, []byte{0}), scratch); form != nil {
			t.Fatalf("%d strings: a D+1-byte piece opening with the longest pattern folds to %d bytes", n, len(form))
		}
		if !raceEnabled {
			if allocs := testing.AllocsPerRun(20, func() { form, scratch = m.Fold(form[:0], sparse, scratch) }); allocs != 0 {
				t.Errorf("%d strings: a fold into a reused buffer allocated %.0f times", n, allocs)
			}
		}
	}
}

// longestPattern is set's longest pattern, the first of them on a tie.
func longestPattern(set *ruleset.Set) []byte {
	var longest []byte
	for _, p := range set.Patterns {
		if len(p.Data) > len(longest) {
			longest = p.Data
		}
	}
	return longest
}

// foldPieces are TestFoldResumeEqualsScan's streams and pieces at one
// ruleset size: befores, the streams a piece follows; pieces, each proved
// after every before; middles, each piece opening part-way through the
// longest pattern after the stream of the bytes before it.
type foldPieces struct {
	longest []byte
	d       int
	rng     *rand.Rand
	befores [][]byte
	pieces  [][]byte
	middles []opened
}

// opened is a piece that opens part-way through a pattern, after the stream
// of that pattern's first bytes.
type opened struct{ before, piece []byte }

func (fp *foldPieces) noise(k int) []byte {
	b := make([]byte, k)
	fp.rng.Read(b)
	return b
}

func (fp *foldPieces) ascii(k int) []byte {
	b := make([]byte, k)
	for i := range b {
		b[i] = byte(' ' + fp.rng.Intn(95))
	}
	return b
}

// newFoldPieces builds the machine of the 2010-seeded ruleset of n strings
// and the pieces: random noise of D and D+1 bytes, ASCII noise of D and 4·D,
// the longest pattern alone and from its middle on, and the longest pattern
// at every offset from the piece's start to D and past it; befores end in
// the start state, on random bytes, or part-way through that same pattern;
// middles open with each suffix of the longest pattern, followed by ASCII
// noise, or by a byte that makes a window no pattern contains with the
// pattern's last two.
func newFoldPieces(t *testing.T, n int) (*Machine, *foldPieces) {
	t.Helper()
	set := ruleset.MustGenerate(ruleset.GenConfig{N: n, Seed: 2010})
	m := mustBuild(t, set, Options{})
	longest := longestPattern(set)
	d := m.Depth()
	if d != len(longest) {
		t.Fatalf("%d strings: Depth is %d, the longest pattern has %d bytes", n, d, len(longest))
	}
	fp := &foldPieces{longest: longest, d: d, rng: rand.New(rand.NewSource(int64(n)))}
	fp.befores = [][]byte{nil, fp.noise(3 * d), longest[:d-1], longest[:d/2]}
	fp.pieces = [][]byte{fp.noise(d), fp.noise(d + 1), fp.ascii(d), fp.ascii(4 * d), longest, append(slices.Clone(longest[d/2:]), fp.noise(2*d)...)}
	for at := 0; at <= d; at++ { // the longest pattern at [at, at+d): ends at D when at == 0
		fp.pieces = append(fp.pieces, slices.Concat(fp.noise(at), longest, fp.noise(d)))
	}
	absent := -1 // a byte ending a window no pattern contains after the longest pattern's last two
	for c := 255; c >= 0; c-- {
		if m.windows.absent(longest[d-2], longest[d-1], byte(c)) {
			absent = c
		}
	}
	if absent < 0 {
		t.Fatalf("%d strings: every window after the longest pattern's last two bytes is in the filter", n)
	}
	for i := 1; i < d; i++ {
		fp.middles = append(fp.middles, opened{longest[:i], slices.Concat(longest[i:], fp.ascii(d))},
			opened{longest[:i], slices.Concat(longest[i:], []byte{byte(absent)}, fp.ascii(d))})
	}
	return m, fp
}

// TestFoldJoinEqualsFold: at the paper's ruleset sizes, on every registered
// backend, two touching pieces — each held as its fold where Fold keeps one,
// and whole — join into exactly Fold's form of the two as one piece, or into
// none where Fold keeps that whole, and the joined form resumes after each
// of TestFoldResumeEqualsScan's befores as a scan of both pieces does. The
// pairs are that test's pieces before and after each of its six fixed ones,
// so both arrival orders are joined, and the longest pattern split at every
// byte between a folded left, after noise, and its middle piece, so the
// pattern straddles the seam and only the rescan of the right's prefix from
// the left's registers finds it. Corrupting the left's stored registers
// there fails the join proof Verify runs. Under -race only the 634-string
// set runs; CI's plain test step runs both.
func TestFoldJoinEqualsFold(t *testing.T) {
	for _, n := range []int{634, 6275} {
		if raceEnabled && n != 634 {
			continue
		}
		m, fp := newFoldPieces(t, n)
		type pair struct{ l, r []byte }
		var pairs []pair
		for _, a := range fp.pieces[:6] {
			for _, b := range fp.pieces {
				pairs = append(pairs, pair{a, b}, pair{b, a})
			}
		}
		for _, o := range fp.middles {
			pairs = append(pairs, pair{slices.Concat(fp.noise(2*fp.d), o.before), o.piece})
		}
		for _, name := range RegisteredBackends() {
			t.Run(fmt.Sprintf("%d/%s", n, name), func(t *testing.T) {
				k := kindOf(t, m, name)
				befores := make([]Regs, len(fp.befores))
				for i, b := range fp.befores {
					befores[i].Reset()
					m.scanAs(k, &befores[i], b, nil)
				}
				held := func(p []byte) [][]byte {
					if form, _ := m.foldAs(k, nil, p, nil, len(p)); form != nil {
						return [][]byte{p, form}
					}
					return [][]byte{p}
				}
				joined, refused := 0, 0
				for _, pr := range pairs {
					for _, lf := range held(pr.l) {
						for _, rf := range held(pr.r) {
							if err := m.proveJoin(k, pr.l, pr.r, lf, rf, befores); err != nil {
								t.Fatal(err)
							}
							if s, _, _ := m.joinAs(k, nil, lf, len(pr.l), rf, len(pr.r), nil); s.Keep != 0 {
								joined++
							}
						}
					}
				}
				if joined < len(pairs) {
					t.Fatalf("only %d joins of %d pairs made a form", joined, len(pairs))
				}
				// Corrupt the left's registers where the pattern straddles
				// the seam: the start state and no history.
				for _, o := range fp.middles {
					l := slices.Concat(fp.noise(2*fp.d), o.before)
					lf, rf := held(l), held(o.piece)
					if len(lf) < 2 {
						continue
					}
					bad, le := slices.Clone(lf[1]), binary.LittleEndian
					regs := bad[len(bad)-foldRegs:]
					le.PutUint32(regs, uint32(ac.Root))
					le.PutUint32(regs[4:], le.Uint32(regs[4:])&^histMask|histUnknown)
					for _, r := range rf {
						if m.proveJoin(k, l, o.piece, bad, r, befores) == nil {
							continue
						}
						refused++
					}
				}
				if refused == 0 {
					t.Fatal("no join from a left with corrupted registers failed the proof")
				}
			})
		}
	}
}

// TestFoldedFormFootprint: the fold keeps little of what a rescan cannot
// change. At 634 strings 1 000 seeded 512 B random pieces all fold, to a
// mean prefix of at most 4 B (3.42 measured); one that opens with the longest pattern keeps
// all D bytes; and the window filter takes at most 1 KiB, at most 16 KiB at
// 6 275 strings.
func TestFoldedFormFootprint(t *testing.T) {
	for _, tc := range []struct{ strings, filter int }{{634, 1 << 10}, {6275, 16 << 10}} {
		set := ruleset.MustGenerate(ruleset.GenConfig{N: tc.strings, Seed: 2010})
		m := mustBuild(t, set, Options{})
		if size := 8 * len(m.windows.bits); size == 0 || size > tc.filter {
			t.Errorf("%d strings: the window filter takes %d B, ceiling %d B", tc.strings, size, tc.filter)
		}
		if tc.strings != 634 {
			continue
		}
		rng := rand.New(rand.NewSource(2010))
		piece, prefixes := make([]byte, 512), 0
		for i := range 1000 {
			rng.Read(piece)
			form, _ := m.Fold(nil, piece, nil)
			if form == nil {
				t.Fatalf("random piece %d was held whole", i)
			}
			prefixes += FoldPrefix(form)
		}
		mean := float64(prefixes) / 1000
		t.Logf("%d strings: a %d B window filter, random 512 B pieces keep a mean prefix of %.2f B", tc.strings, 8*len(m.windows.bits), mean)
		if mean > 4 {
			t.Errorf("random 512 B pieces keep a mean prefix of %.1f B, ceiling 4 B", mean)
		}
		longest := longestPattern(set)
		form, _ := m.Fold(nil, slices.Concat(longest, piece), nil)
		if form == nil || FoldPrefix(form) != m.Depth() {
			t.Errorf("a piece opening with the longest pattern keeps a %d-byte prefix, want D = %d", FoldPrefix(form), m.Depth())
		}
	}
}

// kindOf is the registry kind a backend name names, failing when the machine
// does not support it.
func kindOf(t *testing.T, m *Machine, name string) backendKind {
	t.Helper()
	for _, k := range m.kinds() {
		if scanBackends[k] == name {
			return k
		}
	}
	t.Fatalf("backend %s is not available on this machine", name)
	return 0
}

// TestWindowFilterFillsFromTheTrie: Build fills the window filter from the
// trie's states of depth ≥ 3, each state's last three characters; that must
// set exactly the bits of every 3-byte window of every pattern, the fill it
// replaced, kept here as the oracle — at three of the paper's sizes and on
// random sets.
func TestWindowFilterFillsFromTheTrie(t *testing.T) {
	sets := []*ruleset.Set{}
	for _, n := range []int{634, 1204, 6275} {
		sets = append(sets, ruleset.MustGenerate(ruleset.GenConfig{N: n, Seed: 2010}))
	}
	rng := rand.New(rand.NewSource(54))
	for range 12 {
		sets = append(sets, randBakedSet(rng))
	}
	for i, set := range sets {
		trie := mustTrie(t, set)
		got := newWindowFilter(trie)
		want := windowFilter{bits: make([]uint64, len(got.bits)), shift: got.shift}
		for _, p := range set.Patterns {
			for j := 3; j <= len(p.Data); j++ {
				w, bit := want.slot(p.Data[j-3], p.Data[j-2], p.Data[j-1])
				want.bits[w] |= bit
			}
		}
		if !slices.Equal(got.bits, want.bits) {
			t.Fatalf("set %d (%d patterns): the trie fills the window filter other than the patterns' windows do", i, set.Len())
		}
		if m := mustBuild(t, set, Options{}); m.windows.shift != got.shift || !slices.Equal(m.windows.bits, got.bits) {
			t.Fatalf("set %d: Build installs a window filter other than the trie's", i)
		}
	}
}
