package core

// The scan-backend seam: every way of executing the DTP machine — the
// slice-walking reference interpreter, the baked flat Program, the
// two-stage approximate-prefilter pipeline — implements ScanBackend, and
// the Scanner is a thin facade over whichever backend the machine (or an
// explicit caller) selected. Backends are registered in scanBackends so
// equivalence harnesses (VerifyScan, the lockstep property tests, the
// fuzzers) iterate every implementation a machine supports instead of
// hardcoding pairs; a new backend added here is automatically pulled into
// the oracle proofs.

import (
	"fmt"

	"repro/internal/ac"
)

// Backend names accepted by Options.Backend and Machine.NewScannerFor.
// BackendAuto (or "") resolves to the fastest always-exact default:
// prefiltered when the lossy stage compiled and passed VerifySuperset,
// baked if only the flat Program compiled, reference otherwise.
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

// ScanBackend is one scan implementation bound to per-stream state over a
// shared immutable Machine. All backends must be byte-exact equivalent:
// same states, same histories, same positions, same canonical match
// sequences, on every input, including mid-stream Reset and SkipAhead.
// A ScanBackend is single-goroutine, like the Scanner wrapping it.
type ScanBackend interface {
	// Name reports the registry name of this backend.
	Name() string
	// Step consumes one input byte and reports the new state — exactly one
	// transition per byte, the paper's 1 character/cycle property. Step
	// does not emit matches; it is the register-machine view used by the
	// ablation harness and the lockstep tests.
	Step(c byte) int32
	// ScanAppend consumes data, appending every match to out in canonical
	// ascending-End order (ties in output-chain order, as AppendOutputs
	// emits them).
	ScanAppend(data []byte, out []ac.Match) []ac.Match
	// Reset rewinds to start-of-packet: start state, empty history,
	// position zero.
	Reset()
	// SkipAhead invalidates state and history like Reset (a match must
	// never span bytes the backend did not see) but advances the position
	// by n unseen bytes. n <= 0 is a no-op on every backend: no bytes were
	// skipped, so the registers — including position — must not move.
	SkipAhead(n int)
	// Registers returns the architectural register snapshot. Exactness is
	// defined on this view: after any operation sequence, all backends
	// report identical Registers.
	Registers() Registers
}

// backendSpec is one registry entry: a name, an availability predicate
// (some backends need compiled artifacts the machine may lack), and a
// constructor for per-stream backend state.
type backendSpec struct {
	name      string
	available func(*Machine) bool
	build     func(*Machine) ScanBackend
}

// scanBackends is the backend registry, ordered reference-first so
// verification sweeps always include the oracle-shaped interpreter.
var scanBackends = []backendSpec{
	{
		name:      BackendReference,
		available: func(*Machine) bool { return true },
		build:     func(m *Machine) ScanBackend { return &referenceBackend{m: m} },
	},
	{
		name:      BackendBaked,
		available: func(m *Machine) bool { return m.prog != nil },
		build:     func(m *Machine) ScanBackend { return &bakedBackend{prog: m.prog} },
	},
	{
		name:      BackendPrefiltered,
		available: func(m *Machine) bool { return m.prog != nil && m.pre != nil },
		build: func(m *Machine) ScanBackend {
			return &prefilterBackend{m: m, pf: m.pre, prog: m.prog}
		},
	},
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

// DefaultBackend reports the backend NewScanner selects: the machine's
// configured backend, or the auto resolution — prefiltered when the lossy
// stage compiled and proved its superset contract, baked if only the flat
// Program compiled, reference otherwise.
func (m *Machine) DefaultBackend() string {
	if m.backend != "" && m.backend != BackendAuto {
		return m.backend
	}
	if m.prog != nil && m.pre != nil {
		return BackendPrefiltered
	}
	if m.prog != nil {
		return BackendBaked
	}
	return BackendReference
}

// NewScannerFor returns a scanner pinned to the named backend, resolving
// BackendAuto (and "") like DefaultBackend. It fails when the backend is
// unknown or unavailable on this machine (e.g. prefiltered on a machine
// whose configuration did not bake).
func (m *Machine) NewScannerFor(name string) (*Scanner, error) {
	if name == "" || name == BackendAuto {
		name = m.DefaultBackend()
	}
	for _, spec := range scanBackends {
		if spec.name != name {
			continue
		}
		if !spec.available(m) {
			return nil, fmt.Errorf("core: backend %q unavailable on this machine (available: %v)", name, m.Backends())
		}
		s := &Scanner{b: spec.build(m), gen: m.generation}
		s.Reset()
		return s, nil
	}
	return nil, fmt.Errorf("core: unknown scan backend %q", name)
}

// referenceBackend is the slice-walking interpreter over the builder's
// Machine structures — Machine.Next per byte. It is deliberately kept
// closest to the paper's hardware description and serves as the oracle
// shape every other backend is verified against.
type referenceBackend struct {
	m      *Machine
	state  int32
	h2, h1 int16
	pos    int
}

func (b *referenceBackend) Name() string { return BackendReference }

func (b *referenceBackend) Reset() {
	b.state = ac.Root
	b.h2, b.h1 = HistNone, HistNone
	b.pos = 0
}

func (b *referenceBackend) SkipAhead(n int) {
	if n <= 0 {
		return
	}
	b.state = ac.Root
	b.h2, b.h1 = HistNone, HistNone
	b.pos += n
}

func (b *referenceBackend) Step(c byte) int32 {
	b.state = b.m.Next(b.state, c, b.h2, b.h1)
	b.h2, b.h1 = b.h1, int16(c)
	b.pos++
	return b.state
}

func (b *referenceBackend) Registers() Registers {
	return Registers{State: b.state, H2: b.h2, H1: b.h1, Pos: b.pos}
}

// ScanAppend inlines the reference transition step so the oracle
// transition logic lives in exactly two places: Machine.Next and this
// loop. Any change to the stored-pointer or default-rule step applies to
// both and to every compiled backend.
func (b *referenceBackend) ScanAppend(data []byte, out []ac.Match) []ac.Match {
	m, t := b.m, b.m.Trie
	state, h2, h1, pos := b.state, b.h2, b.h1, b.pos
	maxDepth := m.Opts.MaxDepth
	for _, c := range data {
		if to := m.StoredAt(state, c); to != ac.None {
			state = to
		} else {
			state = m.Defaults.Resolve(c, h2, h1, maxDepth)
		}
		h2, h1 = h1, int16(c)
		pos++
		if t.HasOutput(state) {
			out = t.AppendOutputs(state, pos, out)
		}
	}
	b.state, b.h2, b.h1, b.pos = state, h2, h1, pos
	return out
}

// bakedBackend executes the flat compiled Program — dense rows for the hot
// near-root states, packed CSR stored pointers and the fused-history
// lookup table elsewhere. Registers are kept in the kernel's fused form
// and split only for snapshots.
type bakedBackend struct {
	prog  *Program
	state int32
	hist  uint32
	pos   int
}

func (b *bakedBackend) Name() string { return BackendBaked }

func (b *bakedBackend) Reset() {
	b.state = ac.Root
	b.hist = histUnknown
	b.pos = 0
}

func (b *bakedBackend) SkipAhead(n int) {
	if n <= 0 {
		return
	}
	b.state = ac.Root
	b.hist = histUnknown
	b.pos += n
}

func (b *bakedBackend) Step(c byte) int32 {
	b.state, b.hist = b.prog.step(b.state, b.hist, c)
	b.pos++
	return b.state
}

func (b *bakedBackend) Registers() Registers {
	h2, h1 := splitHist(b.hist)
	return Registers{State: b.state, H2: h2, H1: h1, Pos: b.pos}
}

func (b *bakedBackend) ScanAppend(data []byte, out []ac.Match) []ac.Match {
	b.state, b.hist, b.pos, out = b.prog.scanAppend(b.state, b.hist, b.pos, data, out)
	return out
}
