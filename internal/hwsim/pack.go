package hwsim

import (
	"fmt"

	"repro/internal/ac"
	"repro/internal/bitpack"
	"repro/internal/core"
)

// LUTD2 is one decoded depth-2 lookup-table entry.
type LUTD2 struct {
	Valid bool
	Prev  byte
	Loc   StateLoc
}

// LUTD3 is the decoded depth-3 lookup-table entry.
type LUTD3 struct {
	Valid        bool
	Prev2, Prev1 byte
	Loc          StateLoc
}

// LUTRow is one lookup-table row: the packed bit image plus the decoded
// form the simulator executes. The packed image carries the comparison
// characters and validity only; target addresses are implied by the fixed
// placement of default states ("A default pointer does not need to store
// the address of the state it points to ... each default pointer points to
// a fixed address", §IV.B) — the decoded Loc fields model that fixed
// address derivation.
type LUTRow struct {
	Packed  *bitpack.Vector
	D1Valid bool
	D1      StateLoc
	D2      [4]LUTD2
	D3      LUTD3
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
	// TotalBytesModel replaces the LUT rows with the model's 54-bit rows
	// (49 + 5 validity bits).
	TotalBytesModel int
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

	// packing bookkeeping
	matchAddr     []int32
	wordPlanCount int
}

// Pack lowers a compressed machine into hardware memory images. It fails
// when a state exceeds 13 stored pointers, when the state machine exceeds
// 12-bit word addressing, when the match lists overflow the 2,048-word
// match memory, or when the machine's default configuration does not fit
// the lookup-table row format (at most 4 depth-2 and 1 depth-3 defaults
// per character).
func Pack(m *core.Machine) (*Image, error) {
	if m.Opts.D2PerChar > 4 {
		return nil, fmt.Errorf("hwsim: D2PerChar=%d does not fit the 49-bit row format (max 4)", m.Opts.D2PerChar)
	}
	if m.Opts.D3PerChar > 1 {
		return nil, fmt.Errorf("hwsim: D3PerChar=%d does not fit the 49-bit row format (max 1)", m.Opts.D3PerChar)
	}
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

// packMatchMemory lays out every matching state's full string-number list
// (own outputs plus those inherited along the fail chain — hardware stores
// the complete list so the match scheduler never walks links), two 13-bit
// numbers per 27-bit word, final word flagged. States with identical output
// sets share one list: many states inherit exactly one pattern through
// their fail chain, and the match memory is read-only, so aliasing their
// 11-bit match addresses is free and roughly halves occupancy.
func (img *Image) packMatchMemory() error {
	m := img.Machine
	n := m.NumStates()
	img.Stats.States = n
	matchAddr := make([]int32, n)
	listAddr := make(map[string]int32)
	var key []byte
	var outs []ac.Match
	for s := int32(0); s < int32(n); s++ {
		matchAddr[s] = -1
		outs = m.AppendOutputs(s, 0, outs[:0])
		if len(outs) == 0 {
			continue
		}
		key = key[:0]
		for _, mt := range outs {
			key = append(key, byte(mt.PatternID), byte(mt.PatternID>>8))
		}
		if addr, ok := listAddr[string(key)]; ok {
			matchAddr[s] = addr
			img.Stats.MatchStates++
			continue
		}
		base := len(img.Match)
		for i := 0; i < len(outs); i += 2 {
			id1 := uint32(outs[i].PatternID)
			id2 := uint32(MatchPadID)
			if i+1 < len(outs) {
				id2 = uint32(outs[i+1].PatternID)
			}
			word := id1 | id2<<matchIDBits
			if i+2 >= len(outs) {
				word |= 1 << (2 * matchIDBits) // last flag
			}
			img.Match = append(img.Match, word)
		}
		matchAddr[s] = int32(base)
		listAddr[string(key)] = int32(base)
		img.Stats.MatchStates++
	}
	if len(img.Match) > MaxMatchWords {
		return fmt.Errorf("hwsim: match lists need %d words, block memory holds %d (split the ruleset into more groups)",
			len(img.Match), MaxMatchWords)
	}
	img.matchAddr = matchAddr
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
	img.Loc = make([]StateLoc, n)

	var ones, threes, fives, sevens, nines []int32
	for s := int32(1); s < int32(n); s++ {
		units, err := unitsForPtrs(len(m.StoredRow(s)))
		if err != nil {
			return fmt.Errorf("state %d: %w", s, err)
		}
		switch units {
		case 1:
			ones = append(ones, s)
		case 3:
			threes = append(threes, s)
		case 5:
			fives = append(fives, s)
		case 7:
			sevens = append(sevens, s)
		default:
			nines = append(nines, s)
		}
	}
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
	newWord := func(slots ...slot) int {
		words = append(words, slots)
		return len(words) - 1
	}
	takeOne := func() (int32, bool) {
		if len(ones) == 0 {
			return 0, false
		}
		s := ones[0]
		ones = ones[1:]
		return s, true
	}

	// Word 0: the start state plus up to eight 1-unit states.
	rootWord := []slot{{state: ac.Root, units: 1, off: 0}}
	for off := 1; off < UnitsPerWord; off++ {
		if s, ok := takeOne(); ok {
			rootWord = append(rootWord, slot{state: s, units: 1, off: off})
		}
	}
	newWord(rootWord...)

	// 9-unit states own a full word (type 15).
	for _, s := range nines {
		newWord(slot{state: s, units: 9, off: 0})
	}
	// 7-unit states anchor at 0; units 7..8 take 1-unit states.
	for _, s := range sevens {
		w := []slot{{state: s, units: 7, off: 0}}
		for off := 7; off < UnitsPerWord; off++ {
			if o, ok := takeOne(); ok {
				w = append(w, slot{state: o, units: 1, off: off})
			}
		}
		newWord(w...)
	}
	// 5-unit states anchor at 0; unit 5 takes a 1-unit state, units 6..8 a
	// 3-unit state (type 12) or more 1-unit states.
	for _, s := range fives {
		w := []slot{{state: s, units: 5, off: 0}}
		if o, ok := takeOne(); ok {
			w = append(w, slot{state: o, units: 1, off: 5})
		}
		if len(threes) > 0 {
			w = append(w, slot{state: threes[0], units: 3, off: 6})
			threes = threes[1:]
		} else {
			for off := 6; off < UnitsPerWord; off++ {
				if o, ok := takeOne(); ok {
					w = append(w, slot{state: o, units: 1, off: off})
				}
			}
		}
		newWord(w...)
	}
	// Remaining 3-unit states: three per word at units 0/3/6; a final
	// partial word tops up with 1-unit states.
	for len(threes) > 0 {
		var w []slot
		for _, off := range []int{0, 3, 6} {
			if len(threes) > 0 {
				w = append(w, slot{state: threes[0], units: 3, off: off})
				threes = threes[1:]
			} else {
				for u := off; u < off+3; u++ {
					if o, ok := takeOne(); ok {
						w = append(w, slot{state: o, units: 1, off: u})
					}
				}
			}
		}
		newWord(w...)
	}
	// Remaining 1-unit states: nine per word.
	for len(ones) > 0 {
		var w []slot
		for off := 0; off < UnitsPerWord && len(ones) > 0; off++ {
			s, _ := takeOne()
			w = append(w, slot{state: s, units: 1, off: off})
		}
		newWord(w...)
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
	img.wordPlanCount = len(words)
	return nil
}

// packLUT builds the 256 lookup-table rows from the machine's defaults.
func (img *Image) packLUT() {
	m := img.Machine
	for c := 0; c < LUTRows; c++ {
		row := &img.LUT[c]
		row.Packed = bitpack.New(LUTRowBitsModel)
		if d1 := m.Defaults.D1[c]; d1 != ac.None {
			row.D1Valid = true
			row.D1 = img.Loc[d1]
			row.Packed.SetBit(0, 1)
		} else {
			row.D1 = img.Root
		}
		for i, e := range m.Defaults.D2[c] {
			if i >= 4 {
				break // guarded by Pack's option check; defensive only
			}
			row.D2[i] = LUTD2{Valid: true, Prev: e.Prev, Loc: img.Loc[e.State]}
			row.Packed.SetField(1+8*i, 8, uint64(e.Prev))
			row.Packed.SetBit(49+i, 1)
		}
		if len(m.Defaults.D3[c]) > 0 {
			e := m.Defaults.D3[c][0]
			row.D3 = LUTD3{Valid: true, Prev2: e.Prev2, Prev1: e.Prev1, Loc: img.Loc[e.State]}
			row.Packed.SetField(33, 8, uint64(e.Prev2))
			row.Packed.SetField(41, 8, uint64(e.Prev1))
			row.Packed.SetBit(53, 1)
		}
	}
}

// writeStateWords emits the bit-exact 324-bit words.
func (img *Image) writeStateWords() error {
	m := img.Machine
	img.Words = make([]*bitpack.Vector, img.wordPlanCount)
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
		if addr := img.matchAddr[s]; addr >= 0 {
			word.SetBit(base, 1)
			word.SetField(base+1, matchAddrBits, uint64(addr))
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
	st.TotalBytesModel = (stateBits + matchBits + LUTRows*LUTRowBitsModel + 7) / 8
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
