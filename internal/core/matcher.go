package core

import "repro/internal/ac"

// Scanner is a one-allocation handle around one stream's Regs: the shared
// machine, the backend the handle is pinned to, the register file by value
// (Figure 5: input character, previous 2 input characters, current state,
// stream position) and the match scratch buffer that Scan replays through
// the caller's callback. Callers that hold many streams keep bare Regs and
// call Machine.ScanAppend instead.
//
// Which backend a Scanner runs is decided by the machine's configuration
// (Options.Backend, resolved at Build) or pinned explicitly with
// NewScannerFor. All backends keep identical registers and emit identical
// match sequences, so callers may select purely on performance.
type Scanner struct {
	m    *Machine
	kind backendKind
	r    Regs
	// scratch buffers Scan's matches between the scan and the caller's
	// emit callback, reused across calls up to ac.RecycleMatches' bound.
	scratch []ac.Match
}

// NewScanner returns a scanner positioned at the start of a packet,
// running the machine's configured backend.
func (m *Machine) NewScanner() *Scanner {
	s := &Scanner{m: m, kind: m.kind}
	s.Reset()
	return s
}

// Backend reports the name of the backend this scanner runs.
func (s *Scanner) Backend() string { return scanBackends[s.kind].name }

// Reset rewinds the scanner to start-of-packet; see Regs.Reset.
func (s *Scanner) Reset() { s.r.Reset() }

// SkipAhead invalidates the scan state across n unseen bytes; see
// Regs.SkipAhead.
func (s *Scanner) SkipAhead(n int) { s.r.SkipAhead(n) }

// Step consumes one input byte and reports the new state. Exactly one
// transition is taken per byte — the guaranteed 1 character/cycle property.
func (s *Scanner) Step(c byte) int32 { return s.m.stepAs(s.kind, &s.r, c) }

// State returns the current automaton state.
func (s *Scanner) State() int32 { return s.Registers().State }

// Pos returns the number of bytes consumed since Reset.
func (s *Scanner) Pos() int { return s.r.pos }

// Registers returns the architectural register snapshot — identical across
// backends after any operation sequence; the lockstep equivalence tests
// diff this view.
func (s *Scanner) Registers() Registers { return s.r.registers() }

// Scan consumes data, invoking emit for every match. It continues from the
// scanner's current state; call Reset first for a fresh packet. Matches are
// emitted in increasing end-offset order (one machine scans left to right),
// exactly the sequence ScanAppend would append. The matches are gathered by
// the backend's chunk loop and replayed to emit — so emit observes the
// scanner's end-of-chunk registers (Pos, State), not the per-match
// position.
func (s *Scanner) Scan(data []byte, emit func(ac.Match)) {
	matches := s.ScanAppend(data, s.scratch[:0])
	// Detach the buffer while replaying: an emit callback that reenters
	// this scanner must not rewrite the slice being iterated (it grabs a
	// fresh one, and the headers swap below).
	s.scratch = nil
	for _, m := range matches {
		emit(m)
	}
	s.scratch = ac.RecycleMatches(matches)
}

// ScanAppend consumes data like Scan but appends matches to out and returns
// the extended slice instead of invoking a callback, so steady-state
// scanning allocates nothing once the caller's buffer has grown. The scan
// loop is the backend's: the baked flat kernel, the reference slice walk,
// or the two-stage prefiltered pipeline. All must stay exactly equivalent
// to Machine.Next; any change to the stored-pointer or default-rule step
// applies to every backend.
func (s *Scanner) ScanAppend(data []byte, out []ac.Match) []ac.Match {
	return s.m.scanAs(s.kind, &s.r, data, out)
}

// FindAll scans one whole packet and returns its matches.
func (m *Machine) FindAll(data []byte) []ac.Match {
	var r Regs
	r.Reset()
	return m.ScanAppend(&r, data, nil)
}
