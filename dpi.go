package dpi

import (
	"fmt"
	"io"

	"repro/internal/ac"
	"repro/internal/core"
	"repro/internal/ruleset"
)

// Ruleset is an ordered set of fixed-string patterns with stable integer
// IDs (the hardware's 13-bit "string numbers"). Content and ID lookups are
// index-backed, so building and querying Snort-scale sets (10k+ patterns)
// stays linear overall.
type Ruleset struct {
	set *ruleset.Set
	// byContent maps pattern bytes to the pattern's index in set.Patterns
	// (duplicate detection in Add); byID maps pattern ID to the same index
	// (Name/Content lookups). IDs may be sparse after Reduce.
	byContent map[string]int
	byID      map[int]int
	// nextID is the ID the next Add assigns: one past the largest existing
	// ID, never a reused one. IDs can be sparse after Reduce, so
	// len(Patterns) alone could collide with a surviving pattern.
	nextID int
}

// newRuleset wraps an internal set and builds the lookup indexes.
func newRuleset(set *ruleset.Set) *Ruleset {
	r := &Ruleset{
		set:       set,
		byContent: make(map[string]int, len(set.Patterns)),
		byID:      make(map[int]int, len(set.Patterns)),
	}
	for i, p := range set.Patterns {
		r.byContent[string(p.Data)] = i
		r.byID[p.ID] = i
		if p.ID >= r.nextID {
			r.nextID = p.ID + 1
		}
	}
	return r
}

// NewRuleset returns an empty ruleset.
func NewRuleset() *Ruleset {
	return newRuleset(&ruleset.Set{})
}

// Add appends a pattern and returns its ID. The content must be non-empty
// and unique within the set.
func (r *Ruleset) Add(name string, content []byte) (int, error) {
	if len(content) == 0 {
		return 0, fmt.Errorf("dpi: empty pattern %q", name)
	}
	if i, dup := r.byContent[string(content)]; dup {
		return 0, fmt.Errorf("dpi: duplicate pattern content for %q (already added as %q)", name, r.set.Patterns[i].Name)
	}
	id := r.nextID
	r.nextID++
	data := make([]byte, len(content))
	copy(data, content)
	r.byContent[string(data)] = len(r.set.Patterns)
	r.byID[id] = len(r.set.Patterns)
	r.set.Patterns = append(r.set.Patterns, ruleset.Pattern{ID: id, Data: data, Name: name})
	return id, nil
}

// MustAdd is Add for static rulesets; it panics on error.
func (r *Ruleset) MustAdd(name string, content []byte) int {
	id, err := r.Add(name, content)
	if err != nil {
		panic(err)
	}
	return id
}

// AddSnortContent parses a Snort-style content string (|hex| escapes
// supported) and adds it.
func (r *Ruleset) AddSnortContent(name, content string) (int, error) {
	data, err := ruleset.ParseContent(content)
	if err != nil {
		return 0, err
	}
	return r.Add(name, data)
}

// ParseRuleset reads a ruleset file: one content string per line, optional
// "name:" prefixes, #-comments.
func ParseRuleset(rd io.Reader) (*Ruleset, error) {
	set, err := ruleset.ParseFile(rd)
	if err != nil {
		return nil, err
	}
	return newRuleset(set), nil
}

// GenerateSnortLike produces a deterministic synthetic ruleset whose
// string-length distribution and first-character diversity reproduce the
// Snort set the paper evaluated (Figure 6).
func GenerateSnortLike(n int, seed int64) (*Ruleset, error) {
	set, err := ruleset.Generate(ruleset.GenConfig{N: n, Seed: seed})
	if err != nil {
		return nil, err
	}
	return newRuleset(set), nil
}

// Reduce samples a subset of n patterns preserving the length distribution
// (the paper's §V.A reduction procedure). IDs are preserved.
func (r *Ruleset) Reduce(n int, seed int64) (*Ruleset, error) {
	set, err := r.set.Reduce(n, seed)
	if err != nil {
		return nil, err
	}
	return newRuleset(set), nil
}

// Len returns the number of patterns.
func (r *Ruleset) Len() int { return r.set.Len() }

// InternalSet exposes the ruleset's underlying pattern set for in-module
// tooling: cmd/, examples/ and the test suites hand it to the
// internal/traffic generators so attacks are planted against exactly the
// patterns the matcher holds. The type lives in an internal package, so
// importers outside this module cannot use it; treat the returned set as
// read-only.
func (r *Ruleset) InternalSet() *ruleset.Set { return r.set }

// CharCount returns the total pattern bytes.
func (r *Ruleset) CharCount() int { return r.set.CharCount() }

// Name returns the name of pattern id, or "" if unknown.
func (r *Ruleset) Name(id int) string {
	if i, ok := r.byID[id]; ok {
		return r.set.Patterns[i].Name
	}
	return ""
}

// Content returns the bytes of pattern id, or nil if unknown.
func (r *Ruleset) Content(id int) []byte {
	i, ok := r.byID[id]
	if !ok {
		return nil
	}
	p := r.set.Patterns[i]
	out := make([]byte, len(p.Data))
	copy(out, p.Data)
	return out
}

// Write renders the ruleset in ParseRuleset format.
func (r *Ruleset) Write(w io.Writer) error {
	return ruleset.WriteFile(w, r.set)
}

// Config controls compilation. The compression scheme is the paper's and
// has no knobs: 4 depth-2 and 1 depth-3 default transition pointers per
// lookup-table row, the row the hardware holds.
type Config struct {
	// Backend selects the scan implementation every stream and gateway lane
	// built from this matcher runs:
	//
	//   - BackendAuto (or ""): prefiltered when the lossy stage proves its
	//     superset contract, baked otherwise — the fastest always-exact
	//     default.
	//   - BackendReference: the slice-walking interpreter, closest to the
	//     paper's hardware description.
	//   - BackendBaked: the compiled flat kernel.
	//   - BackendPrefiltered: the two-stage pipeline — a lossy
	//     cache-resident automaton skims clean traffic and only suspect
	//     byte windows run through the exact baked kernel. False positives
	//     possible, false negatives provably not (the superset contract is
	//     verified at compile time); Compile fails if unavailable.
	//
	// All backends are byte-exact equivalent on every input, so selection
	// is purely a performance choice. Unknown names are a Compile error
	// listing the registered backends.
	Backend string
}

// Backend names for Config.Backend.
const (
	BackendAuto        = core.BackendAuto
	BackendReference   = core.BackendReference
	BackendBaked       = core.BackendBaked
	BackendPrefiltered = core.BackendPrefiltered
)

// Validate reports whether the configuration is compilable, without
// compiling anything. Compile runs exactly this check first: Backend-name
// resolution against the registered backends. Every failure wraps
// ErrBadConfig.
func (c Config) Validate() error {
	return validate(core.Options{Backend: c.Backend})
}

func validate(opts core.Options) error {
	if err := opts.Validate(); err != nil {
		return fmt.Errorf("%w: %w", ErrBadConfig, err)
	}
	return nil
}

// Match is one pattern occurrence: pattern PatternID spans [Start, End) of
// the scanned payload or stream. PacketID is the caller's attribution of
// the packet that completed the match — the ingest sequence number in a
// Gateway, the packetID handed to Stream.WritePacket — and -1 where there
// is none (FindAll, Scan, Stream.Write).
type Match struct {
	PatternID int
	Start     int
	End       int
	PacketID  int
}

// Matcher is a compiled, compressed pattern matcher. A Matcher is immutable
// after Compile and safe for concurrent use; the per-scan state lives in
// Streams and in a Gateway's flow records.
type Matcher struct {
	rules   *Ruleset
	machine *core.Machine
	// patLen[id] is the byte length of pattern id, 0 for unused IDs. IDs are
	// bounded by the 13-bit hardware string-number range, so a dense slice
	// beats a per-match map lookup.
	patLen []int32
}

// Compile builds the compressed automaton for the ruleset: one machine,
// whatever the ruleset's size — splitting it into groups is how the hardware
// fits a block's memory, and is fpga.New's. Configuration failures —
// including a nil or empty ruleset — wrap ErrBadConfig (see
// Config.Validate). Every successful Compile stamps the matcher with a
// fresh generation (Matcher.Generation).
func Compile(r *Ruleset, cfg Config) (*Matcher, error) {
	return compile(r, core.Options{Backend: cfg.Backend})
}

// compile is Compile on the builder's options, which also budget the
// kernel's fast tier: the property tests drive every tier shape through it.
func compile(r *Ruleset, opts core.Options) (*Matcher, error) {
	if err := validate(opts); err != nil {
		return nil, err
	}
	if r == nil || r.Len() == 0 {
		return nil, fmt.Errorf("%w: cannot compile an empty ruleset", ErrBadConfig)
	}
	machine, err := core.Build(r.set, opts)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadConfig, err)
	}
	maxID := 0
	for _, p := range r.set.Patterns {
		if p.ID > maxID {
			maxID = p.ID
		}
	}
	patLen := make([]int32, maxID+1)
	for _, p := range r.set.Patterns {
		patLen[p.ID] = int32(len(p.Data))
	}
	return &Matcher{rules: r, machine: machine, patLen: patLen}, nil
}

// Rules returns the matcher's ruleset.
func (m *Matcher) Rules() *Ruleset { return m.rules }

// Generation reports the matcher's compile generation: process-unique and
// monotonically increasing across Compiles. It is an identity for this
// compiled artifact, not a content hash — compiling identical rules twice
// yields two distinct generations. Gateway.SwapRules uses it to order
// reloads (an older or already-installed matcher is ErrStaleGeneration)
// and to label the per-generation flow accounting on Stats and Metrics.
func (m *Matcher) Generation() uint64 { return m.machine.Generation() }

// Backend reports the resolved scan backend every scanner built from this
// matcher runs: Config.Backend, with auto resolved to what actually
// compiled — prefiltered when the lossy stage compiled and passed its
// superset proof (every benchmarked ruleset size), baked otherwise.
func (m *Matcher) Backend() string { return m.machine.DefaultBackend() }

func (m *Matcher) convert(am ac.Match, packetID int) Match {
	length := 0
	if int(am.PatternID) < len(m.patLen) {
		length = int(m.patLen[am.PatternID])
	}
	return Match{
		PatternID: int(am.PatternID),
		Start:     am.End - length,
		End:       am.End,
		PacketID:  packetID,
	}
}

// FindAll scans one payload and returns every match in canonical order:
// ascending End, ties broken by ascending PatternID.
func (m *Matcher) FindAll(payload []byte) []Match {
	raw := m.machine.FindAll(payload)
	out := make([]Match, len(raw))
	for i, am := range raw {
		out[i] = m.convert(am, -1)
	}
	return out
}

// Scan is FindAll with a callback: it scans the whole payload, then calls
// fn for each match in FindAll's canonical order. Nothing is emitted before
// the scan finishes; to consume matches as bytes arrive, use a Stream.
func (m *Matcher) Scan(payload []byte, fn func(Match)) {
	for _, am := range m.machine.FindAll(payload) {
		fn(m.convert(am, -1))
	}
}

// CompressionStats reports the Table II quantities for the compiled
// matcher.
type CompressionStats struct {
	States            int
	OriginalPointers  int64
	OriginalAvg       float64
	D1Defaults        int
	D2Defaults        int
	D3Defaults        int
	AvgAfterD1        float64
	AvgAfterD12       float64
	AvgAfterD123      float64
	StoredPointers    int64
	AvgStored         float64
	Reduction         float64 // fraction of pointers eliminated
	MaxStoredPerState int
}

// Stats returns the machine's compression statistics.
func (m *Matcher) Stats() CompressionStats {
	cs := m.machine.Stats
	return CompressionStats{
		States:            cs.States,
		OriginalPointers:  cs.OriginalPointers,
		OriginalAvg:       cs.OriginalAvg,
		D1Defaults:        cs.D1Count,
		D2Defaults:        cs.D2Count,
		D3Defaults:        cs.D3Count,
		AvgAfterD1:        cs.AvgAfterD1,
		AvgAfterD12:       cs.AvgAfterD12,
		AvgAfterD123:      cs.AvgAfterD123,
		StoredPointers:    cs.StoredPointers,
		AvgStored:         cs.AvgStored,
		Reduction:         cs.Reduction,
		MaxStoredPerState: cs.MaxStoredPerState,
	}
}

// KernelStats reports the memory layout of the compiled flat scan kernel —
// the software analogue of the accelerator's block-memory fill report:
// every table the kernel reads while scanning. No trie is listed because
// none is held: the matcher keeps the compressed image only.
type KernelStats struct {
	// Baked is false only when the matcher was compiled for the reference
	// interpreter (Backend: reference), which compiles no kernel; the layout
	// fields are then zero.
	Baked bool
	// Backend is the resolved active backend (Matcher.Backend).
	Backend       string
	States        int // automaton states
	DenseStates   int // states promoted to fast rows (precomputed whole move rows)
	StoredEntries int // stored-pointer entries of the compressed states
	DenseBytes    int // the fast tier: 48 B per promoted state plus 4 B per override of the depth-1 default row
	// StoredBytes is the stored-pointer arena, 4 B a pointer, plus the row
	// index, 4 B a state. Both are the automaton's own — its one state
	// memory and the one index both interpreters read it through — which
	// the kernel reads in place rather than owning copies; the arena holds
	// every state's row, the promoted states' included.
	StoredBytes int
	LookupBytes int // the automaton's one lookup table: fixed d1/d2/d3 rows
	OutputBytes int // output bitsets, rank tables and flattened pattern-ID lists
	TotalBytes  int

	// Lossy prefilter stage (zero when unavailable). The counters
	// accumulate over every scanner sharing this matcher, and SuspectRate is
	// suspect windows per skimmed byte on the traffic actually seen.
	PrefilterStates int
	PrefilterBytes  int
	SkimmedBytes    uint64
	ExactBytes      uint64
	SuspectWindows  uint64
	SuspectRate     float64

	// AccelPairBytes is always zero.
	//
	// Deprecated: no kernel owns pair tables any more. The field stays
	// only because bench/layers.go sums it into core.kernel_bytes; drop it
	// together with that read.
	AccelPairBytes int
}

// Kernel summarizes the compiled scan kernels backing this matcher: the
// baked flat layout and, when compiled, the lossy prefilter stage with its
// runtime skim accounting.
func (m *Matcher) Kernel() KernelStats {
	ks := KernelStats{Backend: m.Backend()}
	p := m.machine.Program()
	if p == nil {
		return ks
	}
	st := p.Stats()
	ks.Baked = true
	ks.States = st.States
	ks.DenseStates = st.DenseStates
	ks.StoredEntries = st.StoredEntries
	ks.DenseBytes = st.DenseBytes
	ks.StoredBytes = st.StoredBytes
	ks.LookupBytes = st.LookupBytes
	ks.OutputBytes = st.OutputBytes
	ks.TotalBytes = st.TotalBytes
	if pf := m.machine.Prefilter(); pf != nil {
		pst := pf.Stats()
		ks.PrefilterStates = pst.States
		ks.PrefilterBytes = pst.TableBytes
		ks.SkimmedBytes = pst.SkimmedBytes
		ks.ExactBytes = pst.ExactBytes
		ks.SuspectWindows = pst.SuspectWindows
	}
	if ks.SkimmedBytes > 0 {
		ks.SuspectRate = float64(ks.SuspectWindows) / float64(ks.SkimmedBytes)
	}
	return ks
}

// Verify proves the compressed matcher equivalent to the uncompressed
// Aho-Corasick DFA, rebuilt here from the ruleset because the matcher keeps
// none: an exhaustive per-transition structural check of the reference
// interpreter and, on a baked matcher, of the flat kernel's own transition
// tables, of the output table every backend emits from, plus a scan-level
// cross-check of every backend on the provided payloads (may be nil).
func (m *Matcher) Verify(payloads [][]byte) error {
	oracle, err := ac.New(m.rules.set)
	if err != nil {
		return err
	}
	if err := m.machine.VerifyTransitions(oracle); err != nil {
		return err
	}
	if m.machine.Program() != nil {
		if err := m.machine.VerifyProgram(oracle); err != nil {
			return err
		}
	}
	if err := m.machine.VerifyOutputs(oracle); err != nil {
		return err
	}
	return m.machine.VerifyScan(oracle, payloads)
}
