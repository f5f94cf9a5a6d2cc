package hwsim

import (
	"fmt"

	"repro/internal/ac"
	"repro/internal/bitpack"
	"repro/internal/core"
)

// LUTRow is one lookup-table row: the packed bits the comparator block
// reads — the preceding characters and validity bits, nothing else — and
// one target address per slot. The hardware stores no address in the row:
// "A default pointer does not need to store the address of the state it
// points to ... each default pointer points to a fixed address" (§IV.B).
// Target is that fixed wiring, indexed like the row's slots: depth 1, the
// four depth-2 slots, depth 3.
type LUTRow struct {
	Packed *bitpack.Vector
	Target [lutSlots]StateLoc
}

// PackStats summarizes a packed machine for Table II's memory column.
type PackStats struct {
	States         int
	StateWords     int // 324-bit words used
	UsedStateBits  int // bits occupied by real state content
	MatchWordsUsed int // 27-bit match words used
	MatchStates    int // states carrying match information
	FillRatio      float64

	// TotalBytesPaper counts memory as the paper does: used state words ×
	// 324 bits + used match words × 27 bits + 256 LUT rows × 49 bits.
	TotalBytesPaper int
}

// Image is the complete memory content of one string matching block for
// one group machine.
type Image struct {
	Machine *core.Machine
	Words   []*bitpack.Vector
	Loc     []StateLoc
	Match   []uint32
	LUT     [LUTRows]LUTRow
	Root    StateLoc
	Stats   PackStats

	// packing bookkeeping: the match-memory word each of the machine's
	// lists starts at, by where it starts in core's MatchMemory
	listAddr []int32
}

// Pack lays a compressed machine's memories out as one block's images: it
// places the states in 324-bit words and writes their stored pointers,
// packs the machine's match lists two string numbers a 27-bit word, in the
// machine's order, and its lookup table one row a 54-bit word with each
// slot's fixed target address beside it. It fails when a state exceeds 13
// stored pointers, when the state machine exceeds 12-bit word addressing,
// or when the match lists overflow the 2,048-word match memory. Every
// machine's lookup table fits the 49-bit row format: it holds the paper's 4
// depth-2 and 1 depth-3 defaults a row.
func Pack(m *core.Machine) (*Image, error) {
	img := &Image{Machine: m}
	if err := img.packMatchMemory(); err != nil {
		return nil, err
	}
	if err := img.placeStates(); err != nil {
		return nil, err
	}
	img.packLUT()
	if err := img.writeStateWords(); err != nil {
		return nil, err
	}
	img.finishStats()
	return img, nil
}

// packMatchMemory lays the machine's match memory out in 27-bit words:
// its lists in their order — each distinct string-number list once, so
// states with equal lists share one 11-bit match address — two 13-bit
// numbers a word, the final word of each list flagged. Each list is the
// full one (own outputs plus those inherited along the fail chain), so the
// match scheduler never walks links.
func (img *Image) packMatchMemory() error {
	ids := img.Machine.MatchMemory()
	img.listAddr = make([]int32, len(ids))
	for i := 0; i < len(ids); {
		img.listAddr[i] = int32(len(img.Match))
		for last := false; !last; {
			word := ids[i] &^ core.LastMatch
			last = ids[i]&core.LastMatch != 0
			i++
			second := uint32(MatchPadID)
			if !last {
				second = ids[i] &^ core.LastMatch
				last = ids[i]&core.LastMatch != 0
				i++
			}
			word |= second << matchIDBits
			if last {
				word |= 1 << (2 * matchIDBits)
			}
			img.Match = append(img.Match, word)
		}
	}
	if len(img.Match) > MaxMatchWords {
		return fmt.Errorf("hwsim: match lists need %d words, block memory holds %d (split the ruleset into more groups)",
			len(img.Match), MaxMatchWords)
	}
	img.Stats.MatchWordsUsed = len(img.Match)
	return nil
}

// placeStates runs the no-gap word assembly of §IV.A: size classes of 1, 3,
// 5, 7 and 9 units; 5/7/9-unit states anchor at unit 0, 3-unit states at
// units 0/3/6, 1-unit states anywhere. The start state is pinned at word 0
// unit 0 so engines and the lookup table can address it canonically.
func (img *Image) placeStates() error {
	m := img.Machine
	n := m.NumStates()
	img.Stats.States = n
	img.Loc = make([]StateLoc, n)

	var classes [UnitsPerWord + 1][]int32 // states by size in units
	for s := int32(1); s < int32(n); s++ {
		units, err := unitsForPtrs(len(m.StoredRow(s)))
		if err != nil {
			return fmt.Errorf("state %d: %w", s, err)
		}
		classes[units] = append(classes[units], s)
	}
	ones, threes, fives, sevens, nines := classes[1], classes[3], classes[5], classes[7], classes[9]
	if len(m.StoredRow(ac.Root)) != 0 {
		// Cannot happen: every root transition targets a depth-1 state,
		// which is by construction a depth-1 default.
		return fmt.Errorf("hwsim: start state has %d stored pointers", len(m.StoredRow(ac.Root)))
	}

	type slot struct {
		state int32
		units int
		off   int
	}
	var words [][]slot
	// fillOnes places 1-unit states at units lo..hi-1 of w while any are
	// left.
	fillOnes := func(w []slot, lo, hi int) []slot {
		for off := lo; off < hi && len(ones) > 0; off++ {
			w = append(w, slot{state: ones[0], units: 1, off: off})
			ones = ones[1:]
		}
		return w
	}

	// Word 0: the start state plus up to eight 1-unit states.
	words = append(words, fillOnes([]slot{{state: ac.Root, units: 1}}, 1, UnitsPerWord))
	// 9-unit states own a full word (type 15).
	for _, s := range nines {
		words = append(words, []slot{{state: s, units: 9}})
	}
	// 7-unit states anchor at 0; units 7..8 take 1-unit states.
	for _, s := range sevens {
		words = append(words, fillOnes([]slot{{state: s, units: 7}}, 7, UnitsPerWord))
	}
	// 5-unit states anchor at 0; unit 5 takes a 1-unit state, units 6..8 a
	// 3-unit state (type 12) or more 1-unit states.
	for _, s := range fives {
		w := fillOnes([]slot{{state: s, units: 5}}, 5, 6)
		if len(threes) > 0 {
			w = append(w, slot{state: threes[0], units: 3, off: 6})
			threes = threes[1:]
		} else {
			w = fillOnes(w, 6, UnitsPerWord)
		}
		words = append(words, w)
	}
	// Remaining 3-unit states: three per word at units 0/3/6; a final
	// partial word tops up with 1-unit states.
	for len(threes) > 0 {
		var w []slot
		for off := 0; off < UnitsPerWord; off += 3 {
			if len(threes) > 0 {
				w = append(w, slot{state: threes[0], units: 3, off: off})
				threes = threes[1:]
			} else {
				w = fillOnes(w, off, off+3)
			}
		}
		words = append(words, w)
	}
	// Remaining 1-unit states: nine per word.
	for len(ones) > 0 {
		words = append(words, fillOnes(nil, 0, UnitsPerWord))
	}

	if len(words) > MaxStateWords {
		return fmt.Errorf("hwsim: machine needs %d words, 12-bit addressing allows %d (split the ruleset into more groups)",
			len(words), MaxStateWords)
	}

	// Materialize locations and check overlap invariants.
	used := 0
	for wi, w := range words {
		var occupied [UnitsPerWord]bool
		for _, sl := range w {
			st, err := typeFor(sl.units, sl.off)
			if err != nil {
				return err
			}
			for u := sl.off; u < sl.off+sl.units; u++ {
				if occupied[u] {
					return fmt.Errorf("hwsim: packing overlap in word %d unit %d", wi, u)
				}
				occupied[u] = true
			}
			img.Loc[sl.state] = StateLoc{Word: uint16(wi), Type: st}
			used += sl.units * UnitBits
		}
	}
	img.Root = img.Loc[ac.Root]
	img.Stats.StateWords = len(words)
	img.Stats.UsedStateBits = used
	return nil
}

// packLUT builds the 256 lookup-table rows from the machine's lookup table.
func (img *Image) packLUT() {
	for c := 0; c < LUTRows; c++ {
		row := &img.LUT[c]
		row.Packed = bitpack.New(LUTRowBitsModel)
		def := img.Machine.LookupRow(byte(c))
		if def.D1 != ac.None {
			row.Packed.SetBit(lutD1Valid, 1)
			row.Target[lutD1Slot] = img.Loc[def.D1]
		}
		for i, e := range def.D2 {
			row.Packed.SetField(lutD2Prev+8*i, 8, uint64(e.Prev))
			row.Packed.SetBit(lutD2Valid+i, 1)
			row.Target[lutD2Slot+i] = img.Loc[e.State]
		}
		for _, e := range def.D3 {
			row.Packed.SetField(lutD3Prev2, 8, uint64(e.Prev2))
			row.Packed.SetField(lutD3Prev1, 8, uint64(e.Prev1))
			row.Packed.SetBit(lutD3Valid, 1)
			row.Target[lutD3Slot] = img.Loc[e.State]
		}
	}
}

// writeStateWords emits the bit-exact 324-bit words.
func (img *Image) writeStateWords() error {
	m := img.Machine
	img.Words = make([]*bitpack.Vector, img.Stats.StateWords)
	for i := range img.Words {
		img.Words[i] = bitpack.New(WordBits)
	}
	for s := int32(0); s < int32(len(img.Loc)); s++ {
		loc := img.Loc[s]
		word := img.Words[loc.Word]
		base := loc.bitOffset()
		info := loc.Type.Info()
		if len(m.StoredRow(s)) > info.MaxPtrs {
			return fmt.Errorf("hwsim: state %d has %d pointers, type %d holds %d",
				s, len(m.StoredRow(s)), loc.Type, info.MaxPtrs)
		}
		// Match field.
		if at := m.MatchList(s); at >= 0 {
			word.SetBit(base, 1)
			word.SetField(base+1, matchAddrBits, uint64(img.listAddr[at]))
			img.Stats.MatchStates++
		}
		// Pointers, sorted by character (core keeps them sorted).
		for i, ptr := range m.StoredRow(s) {
			off := base + MatchFieldBits + i*PtrBits
			to := img.Loc[ptr.To()]
			word.SetField(off+ptrCharOff, 8, uint64(ptr.Char()))
			word.SetField(off+ptrAddrOff, ptrAddrBits, uint64(to.Word))
			word.SetField(off+ptrTypeOff, ptrTypeBits, uint64(to.Type))
		}
	}
	return nil
}

func (img *Image) finishStats() {
	st := &img.Stats
	st.FillRatio = float64(st.UsedStateBits) / float64(st.StateWords*WordBits)
	stateBits := st.StateWords * WordBits
	matchBits := st.MatchWordsUsed * MatchWordBits
	st.TotalBytesPaper = (stateBits + matchBits + LUTRows*LUTRowBitsPaper + 7) / 8
}

// readPtr decodes pointer slot i of the state at loc; ok is false when the
// slot is empty (type nibble 0).
func (img *Image) readPtr(loc StateLoc, i int) (char byte, to StateLoc, ok bool) {
	word := img.Words[loc.Word]
	off := loc.bitOffset() + MatchFieldBits + i*PtrBits
	t := StateType(word.Field(off+ptrTypeOff, ptrTypeBits))
	if t == 0 {
		return 0, StateLoc{}, false
	}
	return byte(word.Field(off+ptrCharOff, 8)),
		StateLoc{Word: uint16(word.Field(off+ptrAddrOff, ptrAddrBits)), Type: t},
		true
}

// readMatchField decodes the 12-bit match field of the state at loc.
func (img *Image) readMatchField(loc StateLoc) (valid bool, addr uint16) {
	word := img.Words[loc.Word]
	base := loc.bitOffset()
	return word.Bit(base) == 1, uint16(word.Field(base+1, matchAddrBits))
}
