package core

// The program/registers split: every way of executing the DTP machine — the
// slice-walking reference interpreter, the baked flat Program, the
// two-stage approximate-prefilter pipeline — is a function of the shared
// immutable Machine and one Regs value, the pointer-free register file of a
// single stream. A flow, a batch worker or a Scanner handle owns nothing
// but its Regs; which function runs them is the backend the machine
// resolved when it was built (or the one a Scanner was pinned to), never a
// per-stream object. Backends are registered in scanBackends so equivalence
// harnesses (VerifyScan, the lockstep property tests, the fuzzers) iterate
// every implementation a machine supports instead of hardcoding pairs; a
// backend added to the registry and the three dispatch switches below is
// pulled into the oracle proofs automatically.

import (
	"fmt"

	"repro/internal/ac"
)

// Backend names accepted by Options.Backend and Machine.NewScannerFor.
// BackendAuto (or "") resolves to the fastest always-exact default:
// prefiltered when the lossy stage compiled and passed VerifySuperset,
// baked otherwise.
const (
	BackendAuto        = "auto"
	BackendReference   = "reference"
	BackendBaked       = "baked"
	BackendPrefiltered = "prefiltered"
)

// Registers is the architectural register file of one scan lane, mirroring
// the hardware engine (Figure 5): current state, the previous two input
// characters the default rule compares against, and the absolute stream
// position. Every backend must expose the same register values after every
// operation — the register-level lockstep property tests diff snapshots
// across backends after each op. Backends that internally defer work (the
// prefiltered pipeline parks the exact machine while skimming) materialize
// the true registers on demand.
type Registers struct {
	State  int32
	H2, H1 int16
	Pos    int
}

// Regs is the whole per-stream state of a scan, on every backend: plain
// data with no pointers, so a stream is forked by copying the value and a
// million flows cost a million Regs and nothing else. The exact registers
// are kept in the kernels' fused form (see baked.go); the prefiltered
// pipeline adds its skim cursor and the few trailing stream bytes a
// suspect-window rebuild reads back. A Regs is meaningful only to the
// backend that last advanced it, except right after Reset or SkipAhead,
// which leave it valid for all of them. The zero value is not a start
// state: Reset first.
type Regs struct {
	// pos is the absolute stream position: bytes consumed plus bytes
	// skipped since Reset.
	pos int
	// skimStart is the stream position where the current skim segment
	// began (prefiltered only).
	skimStart int
	// state and hist are the exact machine's registers. While the
	// prefiltered pipeline skims, state parks at ac.Root (the skim entry
	// condition) and hist goes stale; both are rebuilt from tail when the
	// pipeline drops back to exact.
	state int32
	hist  uint32
	// pfState is the lossy machine's state while skimming.
	pfState  uint16
	skimming bool
	// tail holds the last tailLen stream bytes actually seen
	// (tail[tailLen-1] is the byte at pos-1), capped at pfTailLen: the left
	// context for suspect-window rebuilds and for register materialization
	// during skims. Reset and SkipAhead clear it — bytes across a gap are
	// unseen and must read back as HistNone. Maintained by the prefiltered
	// backend only.
	tailLen uint8
	tail    [pfTailLen]byte
}

// Reset rewinds to start-of-packet: start state, empty history, position
// zero. The history must be invalidated between packets — stale history
// bytes from a previous packet could otherwise satisfy a depth-2/3 default
// comparison that the current packet's bytes do not justify.
func (r *Regs) Reset() {
	r.pos = 0
	r.invalidate()
}

// SkipAhead invalidates state and history like Reset (a match must never
// span bytes the scan did not see) but advances the position by n unseen
// bytes, so match end offsets emitted after a reassembly gap skip remain
// absolute in the flow's byte stream. n <= 0 is a no-op on every backend:
// no bytes were skipped, so no register — state, history or position —
// moves.
func (r *Regs) SkipAhead(n int) {
	if n <= 0 {
		return
	}
	r.pos += n
	r.invalidate()
}

// invalidate forgets everything but the position: the exact machine at the
// start state with no history, the skimmer armed at the current position.
func (r *Regs) invalidate() {
	r.state = ac.Root
	r.hist = histUnknown
	r.tailLen = 0
	r.enterSkim()
}

// Pos returns the stream position: bytes consumed plus bytes skipped since
// Reset.
func (r *Regs) Pos() int { return r.pos }

// backendKind indexes the registry; it is what a Machine resolves its
// configured backend name to, once, at build.
type backendKind uint8

const (
	kindReference backendKind = iota
	kindBaked
	kindPrefiltered
)

// backendSpec is one registry entry: a name and an availability predicate
// (some backends need compiled artifacts the machine may lack).
type backendSpec struct {
	name      string
	available func(*Machine) bool
}

// scanBackends is the backend registry, indexed by backendKind and ordered
// reference-first so verification sweeps always include the oracle-shaped
// interpreter.
var scanBackends = [...]backendSpec{
	kindReference:   {BackendReference, func(*Machine) bool { return true }},
	kindBaked:       {BackendBaked, func(m *Machine) bool { return m.prog != nil }},
	kindPrefiltered: {BackendPrefiltered, func(m *Machine) bool { return m.prog != nil && m.pre != nil }},
}

// RegisteredBackends lists every backend name in the registry, registry
// order, regardless of per-machine availability — the vocabulary
// Options.Backend and NewScannerFor accept besides BackendAuto. Error
// messages and flag validation derive from this list so a new backend is
// never silently missing from them.
func RegisteredBackends() []string {
	names := make([]string, len(scanBackends))
	for i, spec := range scanBackends {
		names[i] = spec.name
	}
	return names
}

// Backends lists the backend names available on this machine, registry
// order (reference first). Every listed backend is byte-exact equivalent;
// VerifyScan and the lockstep tests iterate exactly this list.
func (m *Machine) Backends() []string {
	var names []string
	for _, spec := range scanBackends {
		if spec.available(m) {
			names = append(names, spec.name)
		}
	}
	return names
}

// resolveKind maps the configured backend name to a registry kind: the
// pinned backend, or the auto resolution — prefiltered when the lossy stage
// compiled and proved its superset contract, baked otherwise.
// compileBackends stores the result in m.kind once the kernels are in
// place.
func (m *Machine) resolveKind() backendKind {
	for k, spec := range scanBackends {
		if spec.name == m.backend {
			return backendKind(k)
		}
	}
	if m.pre != nil {
		return kindPrefiltered
	}
	return kindBaked
}

// DefaultBackend reports the backend ScanAppend and NewScanner run: the
// machine's configured backend, or what auto resolved to at build.
func (m *Machine) DefaultBackend() string { return scanBackends[m.kind].name }

// ScanAppend consumes data on the stream whose registers are r, appending
// every match to out in canonical (End, PatternID) order — ends ascend with
// the scan and each state's output list is stored sorted — on the backend
// the machine resolved at build. All backends are byte-exact equivalent:
// same states, same histories, same positions, same match sequences, on
// every input, including mid-stream Reset and SkipAhead. The machine is
// shared and immutable; r belongs to one goroutine at a time.
func (m *Machine) ScanAppend(r *Regs, data []byte, out []ac.Match) []ac.Match {
	return m.scanAs(m.kind, r, data, out)
}

// scanAs is ScanAppend on an explicit backend. The three dispatchers are
// switches over direct calls, not a table of function values: a Regs on the
// caller's stack (a batch worker's, a FindAll's) must not be forced to the
// heap by an indirect call.
func (m *Machine) scanAs(k backendKind, r *Regs, data []byte, out []ac.Match) []ac.Match {
	switch k {
	case kindPrefiltered:
		return m.scanPrefiltered(r, data, out)
	case kindBaked:
		r.state, r.hist, r.pos, out = m.prog.scanAppend(r.state, r.hist, r.pos, data, out)
		return out
	}
	return m.scanReference(r, data, out)
}

// stepAs consumes one input byte and reports the new state — exactly one
// transition per byte, the paper's 1 character/cycle property. It does not
// emit matches; it is the register-machine view used by the ablation
// harness and the lockstep tests.
func (m *Machine) stepAs(k backendKind, r *Regs, c byte) int32 {
	switch k {
	case kindPrefiltered:
		return m.stepPrefiltered(r, c)
	case kindBaked:
		r.state, r.hist = m.prog.step(r.state, r.hist, c)
	default:
		r.state = m.next(r.state, c, r.hist)
		r.hist = (r.hist<<histLaneBits | uint32(c)) & histMask
	}
	r.pos++
	return r.state
}

// registersAs returns the architectural register snapshot. Exactness is
// defined on this view: after any operation sequence, all backends report
// identical Registers.
func (m *Machine) registersAs(k backendKind, r *Regs) Registers {
	state, hist := r.state, r.hist
	if k == kindPrefiltered && r.skimming {
		state, hist = m.trueRegisters(r)
	}
	h2, h1 := splitHist(hist)
	return Registers{State: state, H2: h2, H1: h1, Pos: r.pos}
}

// scanReference is the slice-walking interpreter over the Machine, kept
// closest to the paper's hardware description: the oracle shape every
// other backend is verified against. It inlines the reference transition
// step, so the oracle transition logic lives in exactly two places:
// Machine.next and this loop. Any change to the stored-pointer or
// default-rule step applies to both and to every compiled backend.
func (m *Machine) scanReference(r *Regs, data []byte, out []ac.Match) []ac.Match {
	state, hist, pos := r.state, r.hist, r.pos
	for _, c := range data {
		if to := m.StoredAt(state, c); to != ac.None {
			state = to
		} else {
			state = m.lut.resolve(c, hist)
		}
		hist = (hist<<histLaneBits | uint32(c)) & histMask
		pos++
		if m.out.has(state) {
			out = m.out.appendTo(state, pos, out)
		}
	}
	r.state, r.hist, r.pos = state, hist, pos
	return out
}

// NewScannerFor returns a scanner pinned to the named backend, resolving
// BackendAuto (and "") like DefaultBackend. It fails when the backend is
// unknown or unavailable on this machine (e.g. prefiltered on a machine
// whose configuration did not bake).
func (m *Machine) NewScannerFor(name string) (*Scanner, error) {
	if name == "" || name == BackendAuto {
		name = m.DefaultBackend()
	}
	for k, spec := range scanBackends {
		if spec.name != name {
			continue
		}
		if !spec.available(m) {
			return nil, fmt.Errorf("core: backend %q unavailable on this machine (available: %v)", name, m.Backends())
		}
		s := &Scanner{m: m, kind: backendKind(k)}
		s.Reset()
		return s, nil
	}
	return nil, fmt.Errorf("core: unknown scan backend %q", name)
}
