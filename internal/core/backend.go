package core

// The program/registers split: every way of executing the DTP machine — the
// slice-walking reference interpreter, the baked flat Program, the
// two-stage approximate-prefilter pipeline — is a function of the shared
// immutable Machine and one Regs value, the pointer-free register file of a
// single stream. A flow, a batch worker or a Scanner handle owns nothing
// but its Regs; which function runs them is the backend the machine
// resolved when it was built (or the one a Scanner was pinned to), never a
// per-stream object. Backends are registered in scanBackends so equivalence
// harnesses (Machine.Verify, the lockstep property tests, the fuzzers) iterate
// every implementation a machine supports instead of hardcoding pairs; a
// backend added to the registry and the two dispatch switches below is
// pulled into the oracle proofs automatically.

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/ac"
	"repro/internal/ruleset"
)

// Backend names accepted by Options.Backend and Machine.NewScannerFor.
// BackendAuto (or "") resolves to the fastest always-exact default:
// prefiltered when the lossy stage compiled and passed its superset proof,
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
// across backends after each op.
type Registers struct {
	State  int32
	H2, H1 int16
	Pos    int
}

// Regs is the whole per-stream state of a scan, on every backend: plain
// data with no pointers, so a stream is forked by copying the value and a
// million flows cost a million Regs and nothing else. It is the exact
// machine's register file and nothing more, in the kernels' fused form (see
// baked.go), and every backend leaves the same value after every call: the
// prefiltered pipeline's skim lives inside one call, and a suspect-window
// rebuild at the call's start reads its history bytes from hist. So a Regs
// advanced by one backend may be continued by any other. The zero value is
// not a start state: Reset first.
type Regs struct {
	// pos is the absolute stream position: bytes consumed plus bytes
	// skipped since Reset.
	pos int
	// state and hist are the current state and the fused history of the
	// last two bytes seen (unknown lanes across Reset and SkipAhead).
	state int32
	hist  uint32
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

// invalidate forgets everything but the position: the start state with no
// history.
func (r *Regs) invalidate() {
	r.state = ac.Root
	r.hist = histUnknown
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
// Machine.Verify and the lockstep tests iterate exactly this list.
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

// Depth is D, the longest pattern's length. A scan's state after D bytes is
// the longest suffix of those bytes that spells a trie path, whatever state
// the scan started in: no trie path is longer. So from there on its states
// and matches no longer depend on where it started, nor, once it has also
// seen two bytes, its history. Fold ends a piece's prefix there at the
// latest. Zero on a hand-assembled machine, which folds nothing.
func (m *Machine) Depth() int { return m.depth }

// windowFilter is a hashed bitset over 3-byte windows holding every
// pattern's 3-byte substrings, and by collision some others: a bit per
// state of depth ≥ 3, rounded up to a power of two (1 KiB at 634 strings).
type windowFilter struct {
	bits  []uint64
	shift uint8 // 32 − log₂ of the bit count
}

// newWindowFilter sizes a filter from t, whose states of depth ≥ 3, the
// last in breadth-first order, each end a 3-byte pattern substring, and
// fills it from set's patterns.
func newWindowFilter(set *ruleset.Set, t *ac.Trie) windowFilter {
	deep := t.NumStates()
	for s := 0; s < t.NumStates() && t.Nodes[s].Depth < 3; s++ {
		deep--
	}
	n := max(bits.Len(uint(max(deep, 1)-1)), 6)
	f := windowFilter{bits: make([]uint64, 1<<n/64), shift: uint8(32 - n)}
	for _, p := range set.Patterns {
		for i := 3; i <= len(p.Data); i++ {
			w, bit := f.slot(p.Data[i-3], p.Data[i-2], p.Data[i-1])
			f.bits[w] |= bit
		}
	}
	return f
}

// slot is where window abc's bit sits: a word and a mask.
func (f *windowFilter) slot(a, b, c byte) (int, uint64) {
	h := (uint32(a)<<16 | uint32(b)<<8 | uint32(c)) * 0x9E3779B1 >> f.shift
	return int(h >> 6), 1 << (h & 63)
}

// absent reports that no pattern contains window abc (never, in the zero filter).
func (f *windowFilter) absent(a, b, c byte) bool {
	w, bit := f.slot(a, b, c)
	return f.bits != nil && f.bits[w]&bit == 0
}

// prove checks that every state of t of depth ≥ 3 has its last three
// characters, read off Char and Parent, in f; the zero filter holds none.
func (f *windowFilter) prove(t *ac.Trie) error {
	for s := 0; f.bits != nil && s < t.NumStates(); s++ {
		if nd := &t.Nodes[s]; nd.Depth >= 3 {
			p := &t.Nodes[nd.Parent]
			if f.absent(t.Nodes[p.Parent].Char, p.Char, nd.Char) {
				return fmt.Errorf("core: the window filter misses the last three characters of state %d", s)
			}
		}
	}
	return nil
}

// The resident form of a folded piece, after its prefix: each later match
// as one word, its end within the piece in the low foldEndBits and its
// pattern ID above them, then the state the piece ends in and its history
// with the prefix's length above it; every word 4 bytes little-endian.
const (
	foldRegs    = 8
	foldMatch   = 4
	foldEndBits = 19
	foldLenBits = 32 - 2*histLaneBits
)

// deepest is t's deepest state, the end of its longest pattern: the last
// state, since ac.New numbers states breadth-first.
func deepest(t *ac.Trie) int32 { return int32(t.NumStates() - 1) }

// Fold scans piece on its own, from invalidated registers, and appends the
// piece's resident form to dst: a prefix, every match the scan found ending
// past it, and the registers the scan ends in. The prefix is Depth() bytes,
// or for the piece's first 3-byte window at j that no pattern contains, its
// first j+2: a match or a state (a pattern's prefix) at byte j+2 reaching
// back past byte j+1 would end in the window. So from there on the scan is
// the same from any start, and Resume continues a stream over the form as
// if over piece, rescanning only the prefix from the stream's registers.
// FoldPrefix reads the prefix's length back. Fold returns dst as it was when
// the form would not be shorter than piece or the piece is 2¹⁹ bytes or more
// — the caller then keeps piece whole — and allocates only to grow dst;
// scratch is the scan's match buffer, returned for reuse.
func (m *Machine) Fold(dst, piece []byte, scratch []ac.Match) ([]byte, []ac.Match) {
	return m.foldAs(m.kind, dst, piece, scratch, len(piece))
}

// FoldPrefix is the length of a Fold form's prefix, which the form begins
// with as plain bytes.
func FoldPrefix(form []byte) int {
	return int(binary.LittleEndian.Uint32(form[len(form)-4:]) >> (32 - foldLenBits))
}

// foldAs is Fold on an explicit backend, keeping forms shorter than limit.
func (m *Machine) foldAs(k backendKind, dst, piece []byte, scratch []ac.Match, limit int) ([]byte, []ac.Match) {
	p := m.depth
	for j := 0; j+2 < p && j+3 <= len(piece); j++ {
		if m.windows.absent(piece[j], piece[j+1], piece[j+2]) {
			p = j + 2 // which ends the loop
		}
	}
	if m.depth == 0 || p >= len(piece) || p >= 1<<foldLenBits || len(piece) >= 1<<foldEndBits || p+foldRegs >= limit {
		return dst, scratch
	}
	var r Regs
	r.Reset()
	scratch = m.scanAs(k, &r, piece, scratch[:0])
	later := scratch
	for len(later) > 0 && later[0].End <= p { // the prefix's matches: Resume rescans them
		later = later[1:]
	}
	if p+foldMatch*len(later)+foldRegs >= limit {
		return dst, scratch
	}
	le := binary.LittleEndian
	dst = append(dst, piece[:p]...)
	for _, mt := range later {
		dst = le.AppendUint32(dst, uint32(mt.End)|uint32(mt.PatternID)<<foldEndBits)
	}
	dst = le.AppendUint32(dst, uint32(r.state))
	return le.AppendUint32(dst, r.hist|uint32(p)<<(32-foldLenBits)), scratch
}

// Resume continues the stream at r over a piece of n bytes held as resident:
// Fold's form of it on this machine, or the piece itself when len(resident)
// == n. It rescans the form's prefix from r, then takes the registers the
// fold ended in, moves the position to the piece's end and appends the
// fold's later matches at their absolute ends: the registers and matches a
// scan of the whole piece from r gives.
func (m *Machine) Resume(r *Regs, resident []byte, n int, out []ac.Match) []ac.Match {
	return m.resumeAs(m.kind, r, resident, n, out)
}

// resumeAs is Resume on an explicit backend.
func (m *Machine) resumeAs(k backendKind, r *Regs, resident []byte, n int, out []ac.Match) []ac.Match {
	if len(resident) == n {
		return m.scanAs(k, r, resident, out)
	}
	p, start, regs := FoldPrefix(resident), r.pos, resident[len(resident)-foldRegs:]
	out = m.scanAs(k, r, resident[:p], out)
	le := binary.LittleEndian
	r.state, r.hist, r.pos = int32(le.Uint32(regs)), le.Uint32(regs[4:])&histMask, start+n
	for b := resident[p : len(resident)-foldRegs]; len(b) > 0; b = b[foldMatch:] {
		w := le.Uint32(b)
		out = append(out, ac.Match{PatternID: int32(w >> foldEndBits), End: start + int(w&(1<<foldEndBits-1))})
	}
	return out
}

// scanAs is ScanAppend on an explicit backend. The two dispatchers are
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
	case kindPrefiltered, kindBaked:
		r.state, r.hist = m.prog.step(r.state, r.hist, c)
	default:
		r.state = m.next(r.state, c, r.hist)
		r.hist = (r.hist<<histLaneBits | uint32(c)) & histMask
	}
	r.pos++
	return r.state
}

// registers returns the architectural register snapshot. Exactness is
// defined on this view: after any operation sequence, all backends report
// identical Registers.
func (r *Regs) registers() Registers {
	h2, h1 := splitHist(r.hist)
	return Registers{State: r.state, H2: h2, H1: h1, Pos: r.pos}
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
