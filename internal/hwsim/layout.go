// Package hwsim is a functional, cycle-accounted simulator of the paper's
// hardware accelerator (§IV): the bit-exact memory images (324-bit state
// words with 15 state types, 27-bit match-number words, 49-bit lookup-table
// rows), the string matching engine register machine (Figure 5), the string
// matching block with 6 phase-interleaved engines sharing a true-dual-port
// memory and a match scheduler (Figure 4), and the multi-block accelerator.
//
// The images are the software core.Machine's own memories in the block's
// word formats, not a second derivation: Pack places the states (§IV.A) and
// packs the machine's stored pointers, lookup-table rows and match lists,
// which software already holds in the paper's shape. The engine reads the
// packed words, and a test proves every packed image against the DFA on
// every (state, byte), as core proves the software kernel.
package hwsim

import "fmt"

// Memory geometry constants from §IV.
const (
	// WordBits is the width of one state-memory word.
	WordBits = 324
	// UnitBits is the granularity of state placement: 9 units per word.
	UnitBits = 36
	// UnitsPerWord is WordBits / UnitBits.
	UnitsPerWord = 9

	// PtrBits is one transition pointer: 8-bit character + 12-bit word
	// address + 4-bit target state type.
	PtrBits     = 24
	ptrCharOff  = 0
	ptrAddrOff  = 8
	ptrTypeOff  = 20
	ptrAddrBits = 12
	ptrTypeBits = 4

	// MatchFieldBits is the per-state match information: 1 valid bit +
	// 11-bit match-memory address ("Each state contains 12 bits to indicate
	// if it has any matching strings and if so the location of the string
	// numbers in memory").
	MatchFieldBits = 12
	matchAddrBits  = 11
	MaxStateWords  = 1 << ptrAddrBits // 12-bit addressing: 4,096 words
	MaxMatchWords  = 2048             // paper: 2,048 27-bit words per block
	MatchWordBits  = 27               // two 13-bit string numbers + last flag
	matchIDBits    = 13
	// MatchPadID fills the unused second slot of an odd final match word.
	MatchPadID = 1<<matchIDBits - 1

	// MaxStoredPtrs is the widest state the engines handle (§IV.A: "states
	// with up to 13 transition pointers, which is adequate once the memory
	// reduction techniques have been applied").
	MaxStoredPtrs = 13

	// LUT geometry: 256 rows. The paper's row is 49 bits (1 depth-1 bit +
	// 4×8 depth-2 preceding characters + 16 depth-3 preceding characters);
	// the model appends 5 validity bits (4 depth-2 + 1 depth-3) because a
	// row with fewer than 4 depth-2 defaults must not misfire.
	LUTRows         = 256
	LUTRowBitsPaper = 49
	LUTRowBitsModel = 54
	// Bit offsets within a row, and the row's default slots.
	lutD1Valid = 0
	lutD2Prev  = 1 // slot i's preceding character at lutD2Prev + 8i
	lutD3Prev2 = 33
	lutD3Prev1 = 41
	lutD2Valid = 49 // slot i's validity bit at lutD2Valid + i
	lutD3Valid = 53
	lutD1Slot  = 0
	lutD2Slot  = 1 // first of lutD2Slots
	lutD2Slots = 4
	lutD3Slot  = lutD2Slot + lutD2Slots
	lutSlots   = lutD3Slot + 1
)

// StateType is the 4-bit type tag of a stored state. Type 0 is reserved to
// mark an empty pointer slot; types 1..15 follow Figure 3:
//
//	types 1..9   36-bit state (0-1 pointers)  at word units 0..8
//	types 10..12 108-bit state (2-4 pointers) at word units 0, 3, 6
//	type 13      180-bit state (5-7 pointers) at unit 0
//	type 14      252-bit state (8-10 pointers) at unit 0
//	type 15      324-bit state (11-13 pointers) at unit 0
type StateType uint8

// TypeInfo describes where a state of the given type lives in its word and
// how many pointers it can hold.
type TypeInfo struct {
	UnitOffset int // starting 36-bit unit within the word
	Units      int // size in units
	MaxPtrs    int // pointer capacity
}

// Info returns the layout of t. It panics on type 0 or out-of-range values,
// which can only arise from corrupted memory images.
func (t StateType) Info() TypeInfo {
	switch {
	case t >= 1 && t <= 9:
		return TypeInfo{UnitOffset: int(t) - 1, Units: 1, MaxPtrs: 1}
	case t >= 10 && t <= 12:
		return TypeInfo{UnitOffset: int(t-10) * 3, Units: 3, MaxPtrs: 4}
	case t == 13:
		return TypeInfo{UnitOffset: 0, Units: 5, MaxPtrs: 7}
	case t == 14:
		return TypeInfo{UnitOffset: 0, Units: 7, MaxPtrs: 10}
	case t == 15:
		return TypeInfo{UnitOffset: 0, Units: 9, MaxPtrs: 13}
	}
	panic(fmt.Sprintf("hwsim: invalid state type %d", t))
}

// unitsForPtrs returns the state size class (in units) for a pointer count.
func unitsForPtrs(n int) (int, error) {
	switch {
	case n <= 1:
		return 1, nil
	case n <= 4:
		return 3, nil
	case n <= 7:
		return 5, nil
	case n <= 10:
		return 7, nil
	case n <= MaxStoredPtrs:
		return 9, nil
	}
	return 0, fmt.Errorf("hwsim: state with %d stored pointers exceeds the hardware maximum %d (split the ruleset into more groups or regenerate with narrower branching)",
		n, MaxStoredPtrs)
}

// typeFor returns the StateType of a state of `units` size placed at
// unit offset `off`.
func typeFor(units, off int) (StateType, error) {
	switch units {
	case 1:
		if off >= 0 && off < 9 {
			return StateType(1 + off), nil
		}
	case 3:
		switch off {
		case 0, 3, 6:
			return StateType(10 + off/3), nil
		}
	case 5:
		if off == 0 {
			return 13, nil
		}
	case 7:
		if off == 0 {
			return 14, nil
		}
	case 9:
		if off == 0 {
			return 15, nil
		}
	}
	return 0, fmt.Errorf("hwsim: no state type for %d units at offset %d", units, off)
}

// StateLoc addresses a stored state: the word address plus the type, which
// encodes the in-word position. This pair is exactly what a transition
// pointer carries.
type StateLoc struct {
	Word uint16
	Type StateType
}

// bitOffset returns the state's first bit within its word.
func (l StateLoc) bitOffset() int {
	return l.Type.Info().UnitOffset * UnitBits
}
