package hwsim

// Engine simulates one string matching engine (Figure 5). Its registers
// are the current state location, the input character history (previous two
// characters with validity, cleared at packet start), and the match field
// returned by the last state fetch. Each Step consumes exactly one input
// byte and performs exactly one state transition — the architecture's
// guaranteed 1 character/cycle property; Cycles counts them.
//
// The hardware pipelines the lookup-table read, the state-memory read and
// the comparator stage across consecutive cycles; the functional simulator
// performs them within one Step, which is behaviourally identical because
// the pipeline has no feedback hazards (the paper's §IV.B walkthrough: the
// character registers its default information one cycle ahead of the state
// information it is compared against).
type Engine struct {
	img *Image

	cur    StateLoc
	h1, h2 int16 // previous input characters; -1 = invalid (packet start)
	Cycles int64
}

// NewEngine returns an engine bound to a packed memory image, positioned at
// start-of-packet.
func NewEngine(img *Image) *Engine {
	e := &Engine{img: img}
	e.Reset()
	return e
}

// Reset rewinds to the start state and invalidates the character history.
func (e *Engine) Reset() {
	e.cur = e.img.Root
	e.h1, e.h2 = -1, -1
}

// StepResult reports one transition's outcome.
type StepResult struct {
	Loc       StateLoc
	Match     bool
	MatchAddr uint16
}

// Step consumes one byte: it compares c against the stored pointers of the
// current state, falls back to the lookup table's default transitions
// (depth 3, then depth 2, then depth 1, then the start state), updates the
// history registers, and reports the new state's match field.
func (e *Engine) Step(c byte) StepResult {
	next, ok := e.matchStored(c)
	if !ok {
		next = e.resolveDefault(c)
	}
	e.h2 = e.h1
	e.h1 = int16(c)
	e.cur = next
	e.Cycles++
	valid, addr := e.img.readMatchField(next)
	return StepResult{Loc: next, Match: valid, MatchAddr: addr}
}

// matchStored runs the 15 comparator blocks of Figure 5: it scans the
// current state's pointer slots for a character match.
func (e *Engine) matchStored(c byte) (StateLoc, bool) {
	info := e.cur.Type.Info()
	for i := 0; i < info.MaxPtrs; i++ {
		char, to, ok := e.img.readPtr(e.cur, i)
		if !ok {
			break // slots fill front-to-back; first empty ends the list
		}
		if char == c {
			return to, true
		}
	}
	return StateLoc{}, false
}

// resolveDefault runs the default-transition comparator on the packed row
// for c: the deepest valid slot whose preceding characters equal the
// history registers wins, and leads to that slot's fixed address.
func (e *Engine) resolveDefault(c byte) StateLoc {
	row := &e.img.LUT[c]
	bits := row.Packed.Field(0, LUTRowBitsModel)
	field := func(off int) int16 { return int16(bits >> off & 0xFF) }
	valid := func(bit int) bool { return bits>>bit&1 == 1 }
	if valid(lutD3Valid) && e.h2 >= 0 && e.h1 >= 0 &&
		field(lutD3Prev2) == e.h2 && field(lutD3Prev1) == e.h1 {
		return row.Target[lutD3Slot]
	}
	if e.h1 >= 0 {
		for i := 0; i < lutD2Slots; i++ {
			if valid(lutD2Valid+i) && field(lutD2Prev+8*i) == e.h1 {
				return row.Target[lutD2Slot+i]
			}
		}
	}
	if valid(lutD1Valid) {
		return row.Target[lutD1Slot]
	}
	return e.img.Root
}
