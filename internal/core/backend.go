package core

// The machine/registers split: every way of executing the DTP machine — the
// slice-walking reference interpreter, the baked two-tier loop, the
// two-stage approximate-prefilter pipeline — is a function of the shared
// immutable Machine and one Regs value, the pointer-free register file of a
// single stream. A flow, a batch worker or a stream handle owns nothing
// but its Regs; which function runs them is the backend the machine
// resolved when it was built, never a per-stream object. Backends are
// registered in scanBackends so equivalence harnesses (Machine.Verify, the
// lockstep property tests, the fuzzers) iterate every implementation a
// machine supports instead of hardcoding pairs; a backend added to the
// registry, to kinds and to scanAs's switch is pulled into the oracle
// proofs automatically. Each interpreter's transition is written once, in its
// scan loop — scanReference, Machine.scanAppend — and the proofs run those
// loops.

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/ac"
	"repro/internal/reassembly"
)

// Backend names accepted by Options.Backend. BackendAuto (or "") resolves
// to the fastest always-exact default: prefiltered when the lossy stage
// compiled and passed its superset proof, baked otherwise.
const (
	BackendAuto        = "auto"
	BackendReference   = "reference"
	BackendBaked       = "baked"
	BackendPrefiltered = "prefiltered"
)

// Regs is the whole per-stream state of a scan, on every backend — the
// hardware engine's register file (Figure 5): current state, the previous
// two input characters the default rule compares against, and the absolute
// stream position. It is plain data with no pointers, so a stream is forked
// by copying the value and a million flows cost a million Regs and nothing
// else. It is the exact machine's register file and nothing more, in the
// kernels' fused form (see baked.go), and every backend leaves the same
// value after every call: the prefiltered pipeline's skim lives inside one
// call, and a suspect-window rebuild at the call's start reads its history
// bytes from hist. So a Regs advanced by one backend may be continued by
// any other, and two are compared with ==. The zero value is not a start
// state: Reset first.
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

// State returns the current automaton state.
func (r *Regs) State() int32 { return r.state }

// backendKind indexes the registry; it is what a Machine resolves its
// configured backend name to, once, at build.
type backendKind uint8

const (
	kindReference backendKind = iota
	kindBaked
	kindPrefiltered
)

// scanBackends is the backend registry, each backend's name indexed by
// backendKind and ordered reference-first so verification sweeps always
// include the oracle-shaped interpreter.
var scanBackends = [...]string{
	kindReference:   BackendReference,
	kindBaked:       BackendBaked,
	kindPrefiltered: BackendPrefiltered,
}

// RegisteredBackends lists every backend name, registry order, whatever a
// machine supports — the vocabulary Options.Backend accepts besides
// BackendAuto, from which error messages and flag validation derive.
func RegisteredBackends() []string { return slices.Clone(scanBackends[:]) }

// kinds lists the backends this machine supports, registry order: every
// build bakes, so only prefiltered, which needs a kept prefilter, can be
// missing. Machine.Verify and the lockstep tests iterate this list.
func (m *Machine) kinds() []backendKind {
	if m.pre == nil {
		return []backendKind{kindReference, kindBaked}
	}
	return []backendKind{kindReference, kindBaked, kindPrefiltered}
}

// Backends lists the backend names available on this machine, registry
// order (reference first). Every listed backend is byte-exact equivalent.
func (m *Machine) Backends() []string {
	var names []string
	for _, k := range m.kinds() {
		names = append(names, scanBackends[k])
	}
	return names
}

// resolveKind maps the configured backend name to a registry kind: the
// pinned backend, or the auto resolution — prefiltered when the lossy stage
// compiled and proved its superset contract, baked otherwise.
// compileBackends stores the result in m.kind once the prefilter's fate is
// known.
func (m *Machine) resolveKind() backendKind {
	if k := slices.Index(scanBackends[:], m.backend); k >= 0 {
		return backendKind(k)
	}
	if m.pre != nil {
		return kindPrefiltered
	}
	return kindBaked
}

// DefaultBackend reports the backend ScanAppend runs: the machine's
// configured backend, or what auto resolved to at build.
func (m *Machine) DefaultBackend() string { return scanBackends[m.kind] }

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

// FindAll scans one whole packet and returns its matches.
func (m *Machine) FindAll(data []byte) []ac.Match {
	var r Regs
	r.Reset()
	return m.ScanAppend(&r, data, nil)
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

// newWindowFilter fills a filter from t's states of depth ≥ 3, the last in
// breadth-first order: each ends a 3-byte pattern substring, read off Char
// and Parent, and each such substring ends one of them — a pattern's window
// ending at byte i ends the state of its first i bytes.
func newWindowFilter(t *ac.Trie) windowFilter {
	first := 0
	for first < t.NumStates() && t.Nodes[first].Depth < 3 {
		first++
	}
	n := max(bits.Len(uint(max(t.NumStates()-first, 1)-1)), 6)
	f := windowFilter{bits: make([]uint64, 1<<n/64), shift: uint8(32 - n)}
	for s := first; s < t.NumStates(); s++ {
		nd := &t.Nodes[s]
		p := &t.Nodes[nd.Parent]
		w, bit := f.slot(t.Nodes[p.Parent].Char, p.Char, nd.Char)
		f.bits[w] |= bit
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
// Only Machine.Verify runs it, against a trie of its own.
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

// The resident form of a folded piece, after its prefix of p bytes: each
// later match as uvarint(end − the previous match's end, the first's counted
// from p) and uvarint(pattern ID); then the stream bytes after the last
// match (or after the prefix, with none), a uvarint written back to front so
// it reads from its end; then the registers the piece's scan ended in, the
// state and the history with p above it, each word 4 bytes little-endian. A
// join reads the tail and the registers from the form's end, so it extends a
// form without decoding its match list.
const (
	foldRegs     = 8
	foldMaxPiece = 1 << 19 // a piece this long or longer is held whole
	foldLenBits  = 32 - 2*histLaneBits
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
	p := m.foldPoint(piece, nil)
	if m.depth == 0 || p >= len(piece) || p >= 1<<foldLenBits || len(piece) >= foldMaxPiece || p+1+foldRegs >= limit {
		return dst, scratch
	}
	var r Regs
	r.Reset()
	scratch = m.scanAs(k, &r, piece, scratch[:0])
	form, last := appendLater(append(dst, piece[:p]...), scratch, p, p)
	if form = seal(form, &r, p, last); len(form)-len(dst) >= limit {
		return dst, scratch
	}
	return form, scratch
}

// foldPoint is where a fold of the bytes a then b ends its prefix: D, or
// j+2 for the first 3-byte window at j that no pattern contains.
func (m *Machine) foldPoint(a, b []byte) int {
	at := func(i int) byte {
		if i < len(a) {
			return a[i]
		}
		return b[i-len(a)]
	}
	p, n := m.depth, len(a)+len(b)
	for j := 0; j+2 < p && j+3 <= n; j++ {
		if m.windows.absent(at(j), at(j+1), at(j+2)) {
			p = j + 2 // which ends the loop
		}
	}
	return p
}

// appendLater appends to dst each match of ms ending past p, its end counted
// from the one before it, the first from last, and returns the last end.
func appendLater(dst []byte, ms []ac.Match, p, last int) ([]byte, int) {
	for _, mt := range ms {
		if mt.End > p {
			dst = binary.AppendUvarint(binary.AppendUvarint(dst, uint64(mt.End-last)), uint64(mt.PatternID))
			last = mt.End
		}
	}
	return dst, last
}

// seal ends a form whose prefix is p bytes and whose last match ends at last:
// the bytes r's scan went on past it, written back to front, then r's
// registers with p.
func seal(dst []byte, r *Regs, p, last int) []byte {
	var v [binary.MaxVarintLen64]byte
	for i := binary.PutUvarint(v[:], uint64(r.pos-last)); i > 0; i-- {
		dst = append(dst, v[i-1])
	}
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, uint32(r.state))
	return le.AppendUint32(dst, r.hist|uint32(p)<<(32-foldLenBits))
}

// foldEnd is a form read from its end: its prefix's length, where its match
// list ends, how many stream bytes follow its last match, and its registers.
type foldEnd struct {
	p, list, tail int
	state         int32
	hist          uint32
}

// readEnd reads form's end.
func readEnd(form []byte) foldEnd {
	le := binary.LittleEndian
	regs, e := form[len(form)-foldRegs:], foldEnd{p: FoldPrefix(form), list: len(form) - foldRegs}
	for shift := 0; ; shift += 7 {
		e.list--
		c := form[e.list]
		e.tail |= int(c&0x7f) << shift
		if c < 0x80 {
			break
		}
	}
	e.state, e.hist = int32(le.Uint32(regs)), le.Uint32(regs[4:])&histMask
	return e
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
	e, start := readEnd(resident), r.pos
	out = m.scanAs(k, r, resident[:e.p], out)
	end := start + e.p
	for b := resident[e.p:e.list]; len(b) > 0; {
		d, i := binary.Uvarint(b)
		id, j := binary.Uvarint(b[i:])
		end, b = end+int(d), b[i+j:]
		out = append(out, ac.Match{PatternID: int32(id), End: end})
	}
	r.state, r.hist, r.pos = e.state, e.hist, start+n
	return out
}

// Join is Fold's form of two touching pieces as one, made from what is held
// of them: left, n stream bytes, then right, nr, each a Fold form on this
// machine or the piece itself. Past a fold's prefix a scan no longer depends
// on where it started, so a folded left's registers are those of the stream
// at the seam: the right is scanned on from them, a folded right only its
// prefix, its later matches and registers kept. A left held whole is scanned
// from its bytes. The form is told as a reassembly.Seam over the two
// residents, so a caller rewrites them where they lie: a folded left keeps
// all but its end, a folded right with later matches all but its first end
// and its last word, and Mid and End hold only what the rescans found. Join
// returns the zero Seam where Fold would keep the joined piece whole. The
// left is at least a byte (n ≥ 1), as every held run is: a Seam keeps some
// of it, and Keep 0 is the zero Seam's. buf is Mid's and End's storage and
// scratch the scans' match buffer, both returned for reuse.
func (m *Machine) Join(buf, left []byte, n int, right []byte, nr int, scratch []ac.Match) (reassembly.Seam, []byte, []ac.Match) {
	return m.joinAs(m.kind, buf, left, n, right, nr, scratch)
}

// joinAs is Join on an explicit backend.
func (m *Machine) joinAs(k backendKind, buf, left []byte, n int, right []byte, nr int, scratch []ac.Match) (reassembly.Seam, []byte, []ac.Match) {
	if m.depth == 0 || n+nr >= foldMaxPiece {
		return reassembly.Seam{}, buf, scratch
	}
	rb, pr := right, len(right) // what of the right is bytes: all of it, or its prefix
	if len(right) < nr {
		pr = FoldPrefix(right)
		rb = right[:pr]
	}
	var s reassembly.Seam
	var r Regs // the scan at the seam, its position counted from the left's start
	var p, last int
	buf = buf[:0]
	if len(left) < n {
		e := readEnd(left)
		p, last, s.Keep = e.p, n-e.tail, e.list
		r = Regs{pos: n, state: e.state, hist: e.hist}
	} else {
		// The right's prefix ends after the first window no pattern
		// contains, so the joined prefix ends there at the latest.
		if p = m.foldPoint(left, rb); len(right) < nr && pr < m.depth {
			p = min(p, n+pr)
		}
		if p >= n+nr || p >= 1<<foldLenBits {
			return reassembly.Seam{}, buf, scratch
		}
		r.Reset()
		scratch = m.scanAs(k, &r, left, scratch[:0])
		s.Keep = min(p, n)
		buf, last = appendLater(append(buf, rb[:max(p-n, 0)]...), scratch, p, p)
	}
	scratch = m.scanAs(k, &r, rb, scratch[:0])
	buf, last = appendLater(buf, scratch, p, last)
	e := foldEnd{list: pr} // a right held whole keeps no match of its own
	if len(right) < nr {
		e = readEnd(right)
	}
	var mid int
	if e.list > pr {
		// The right's later matches stay where they are but for the first's
		// end, now counted from the joined list's last, and its tail and
		// state word stay too: only the history word takes the new prefix.
		d, i := binary.Uvarint(right[pr:])
		buf = binary.AppendUvarint(buf, uint64(n+pr+int(d)-last))
		mid, s.Skip, s.Cut = len(buf), pr+i, len(right)-4
		buf = binary.LittleEndian.AppendUint32(buf, e.hist|uint32(p)<<(32-foldLenBits))
	} else {
		if len(right) < nr {
			r.state, r.hist, r.pos = e.state, e.hist, n+nr
		}
		buf = seal(buf, &r, p, last)
		mid, s.Skip, s.Cut = len(buf), len(right), len(right)
	}
	s.Mid, s.End = buf[:mid], buf[mid:]
	if s.Keep+len(buf)+s.Cut-s.Skip >= n+nr {
		return reassembly.Seam{}, buf, scratch
	}
	return s, buf, scratch
}

// scanAs is ScanAppend on an explicit backend. It is a switch over direct
// calls, not a table of function values: a Regs on the caller's stack (a
// batch worker's, a FindAll's) must not be forced to the heap by an
// indirect call.
func (m *Machine) scanAs(k backendKind, r *Regs, data []byte, out []ac.Match) []ac.Match {
	switch k {
	case kindPrefiltered:
		return m.scanPrefiltered(r, data, out)
	case kindBaked:
		r.state, r.hist, r.pos, out = m.scanAppend(r.state, r.hist, r.pos, data, out)
		return out
	}
	return m.scanReference(r, data, out)
}

// scanReference is the slice-walking interpreter over the Machine, kept
// closest to the paper's hardware description: a binary search of the
// state's stored row, then the default rule. It is the one reference
// transition, the oracle-shaped loop every other backend is held to, and
// verifyTransitions proves it on every (state, byte) against the DFA.
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
