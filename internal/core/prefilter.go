package core

// The two-stage approximate prefilter: a tiny lossy automaton skims clean
// traffic and hands only suspect byte windows to the exact baked kernel.
// The lossy machine may raise false alarms but provably never misses — the
// superset contract below — so the pipeline stays byte-exact equivalent to
// the reference machine while touching most clean bytes with a single
// byte-indexed load.
//
// Construction. Fix a window depth K (prefK). Bytes are collapsed onto a
// small class alphabet: every byte appearing within the first K levels of
// the pattern trie gets a non-zero class, every other byte is class 0.
// Pattern-starting bytes (depth 1) and deeper-only bytes are partitioned
// onto disjoint class ranges — start-state residency is exactly "this byte
// starts no pattern", and the partition keeps class folding from eroding
// it — and each partition folds onto its own share of the budget when
// rulesets use more distinct bytes than classes. Over that alphabet a collapsed Aho-Corasick DFA is built from
// the truncated accept strings: φ(path(s)) for every exact trie state s at
// depth exactly K, plus φ(path(s)) for every shallower state where a whole
// pattern ends. States whose path *ends with* an accept string — the
// accept set closed over fail links — are flagged suspect, and the flag is
// folded into bit 15 of each uint16 transition entry so the skim loop
// tests it for free.
//
// Superset contract (no false negatives). Start both machines at a stream
// position where the exact machine is at the start state. While no suspect
// entry has been hit: (1) the exact machine's depth stays below K — depth
// grows at most one per byte, so first reaching depth K happens at a byte
// whose last K inputs spell a depth-K trie path, whose collapsed form is
// an accept string, and the collapsed DFA state (the longest collapsed
// suffix) then carries that accept in its fail closure, firing suspect;
// (2) no match ends — a pattern ending while depth < K has length < K, is
// inserted as an accept string itself, and fires suspect the same way.
// verifySuperset checks the accept-string walk structurally at bake time
// (in the spirit of verifyTransitions); the property test and the
// FuzzPrefilterEquivalence fuzzer check the runtime pipeline end to end.
//
// Suspect-window rebuild. When suspect fires at stream index a, the exact
// kernel restarts from the start state at r = max(a−K+1, skim start) —
// clamped so previously exact-scanned bytes are never rescanned, which
// would double-emit — seeded with the true history bytes r−2, r−1 kept in
// a small tail ring. The rescanned machine's state path is always a real
// suffix of the stream (stored transitions extend it, d2/d3 defaults fire
// only on true history bytes), so it emits only true matches; no true
// match ends strictly before a+1 by the superset contract; and after
// consuming through byte a its registers provably equal the true
// machine's: a pure DFA restart over ≥ depth(a+1) trailing bytes computes
// the true longest-suffix state, the DTP restart is sandwiched between
// that DFA restart and the true machine (defaults only ever jump *deeper*
// along true suffixes), and two identical register files stay identical
// forever after. The pipeline then stays exact until the machine returns
// to the start state, where skimming is sound again.

import (
	"fmt"
	"sync/atomic"

	"repro/internal/ac"
)

const (
	// prefK is the prefilter window depth: the lossy machine proves "the
	// exact machine is below depth K and no match ends here" for clean
	// bytes. 3 matches the DTP default depth — the d2/d3 history window —
	// and keeps the collapsed table a few tens of KB on Snort-scale sets.
	prefK = 3

	// pfSuspect flags a transition entry whose target state ends with an
	// accept string; the low 15 bits are the target state id.
	pfSuspect   = uint16(1) << 15
	pfStateMask = pfSuspect - 1
	pfMaxStates = 1 << 15

	// pfMaxClasses bounds the collapsed alphabet (class 0 = byte absent
	// from all pattern prefixes). Rulesets with more distinct prefix bytes
	// fold classes together — more false suspects, never a miss.
	pfMaxClasses = 64

	// The transition table is laid out at a fixed power-of-two row stride
	// (entry = tab[state<<pfStrideBits | class]) regardless of how many
	// classes are in use, so the skim loop's address arithmetic is a shift
	// and an OR on the load-to-load dependency chain instead of a multiply.
	pfStrideBits = 6
	pfStride     = 1 << pfStrideBits

	// pfTailLen is the left-context ring: a rebuild needs the K−1 bytes
	// before the suspect byte plus their 2 history bytes (one spare).
	pfTailLen = prefK + 2
)

// Prefilter is the compiled lossy first stage, immutable after
// CompilePrefilter except for its runtime counters; safe for concurrent
// use by any number of scanners.
type Prefilter struct {
	class    [256]uint8 // byte → collapsed class, 0 = not in any prefix
	nClasses int
	tab      []uint16    // states × pfStride (row-strided): target | pfSuspect
	rootTab  [256]uint16 // row 0 pre-composed with class[], byte-indexed
	states   int
	accepts  int // accept strings inserted
	folded   bool

	// Runtime counters, accumulated once per ScanAppend chunk.
	skimmedBytes   atomic.Uint64
	exactBytes     atomic.Uint64
	suspectWindows atomic.Uint64
}

// CompilePrefilter builds the lossy first stage from the trie t. It returns
// nil when the collapsed machine does not fit the packed entry format (state
// ids share a uint16 with the suspect flag), in which case the prefiltered
// backend is simply unavailable. Build compiles it automatically alongside
// the baked Program and proves verifySuperset before keeping it.
func CompilePrefilter(t *ac.Trie) *Prefilter {
	n := t.NumStates()

	pf := &Prefilter{}
	// Partition bytes into first bytes (depth 1) and deeper-only bytes
	// (depth 2..K, never depth 1). The two partitions never share a class:
	// the skim loop's start-state residency — its whole advantage on clean
	// traffic — is exactly "this byte starts no pattern", and folding a
	// deeper-only byte into a first byte's class would make it leave the
	// start state too. Within a partition folding only coarsens depth-2/3
	// discrimination (more false suspects, never a miss), so when the
	// distinct bytes exceed the class budget each partition folds onto its
	// own share, split proportionally.
	var first, deep [256]bool
	prefixStates := 0 // trie states of depth 1..K
	for s := 1; s < n; s++ {
		if nd := &t.Nodes[s]; nd.Depth <= prefK {
			prefixStates++
			if nd.Depth == 1 {
				first[nd.Char] = true
			} else {
				deep[nd.Char] = true
			}
		}
	}
	nFirst, nDeep := 0, 0
	for b := 0; b < 256; b++ {
		if first[b] {
			deep[b] = false
			nFirst++
		} else if deep[b] {
			nDeep++
		}
	}
	budget := pfMaxClasses - 1
	fc, dc := nFirst, nDeep
	if nFirst+nDeep > budget {
		pf.folded = true
		fc = budget * nFirst / (nFirst + nDeep)
		if fc < 1 && nFirst > 0 {
			fc = 1
		}
		if fc > nFirst {
			fc = nFirst
		}
		dc = budget - fc
		if dc > nDeep {
			dc = nDeep
		}
	}
	fi, di := 0, 0
	for b := 0; b < 256; b++ {
		switch {
		case first[b]:
			pf.class[b] = uint8(1 + fi%fc)
			fi++
		case deep[b]:
			pf.class[b] = uint8(1 + fc + di%dc)
			di++
		}
	}
	pf.nClasses = 1 + fc + dc
	nc := pf.nClasses

	// Collapsed goto trie over the truncated accept strings, its class rows
	// in one flat arena: node v's row is next[v*nc:][:nc]. Every node but the
	// start is the collapsed form of a distinct trie path of depth 1..K, so
	// there are at most prefixStates+1 of them, and the arena is sized to
	// that once.
	type pnode struct {
		fail    int32
		accept  bool
		suspect bool
	}
	next := make([]int32, (prefixStates+1)*nc)
	for i := range next {
		next[i] = ac.None
	}
	nodes := make([]pnode, 1, prefixStates+1)
	insert := func(classes []uint8) {
		cur := 0
		for _, c := range classes {
			nxt := next[cur*nc+int(c)]
			if nxt == ac.None {
				nxt = int32(len(nodes))
				nodes = append(nodes, pnode{})
				next[cur*nc+int(c)] = nxt
			}
			cur = int(nxt)
		}
		if !nodes[cur].accept {
			nodes[cur].accept = true
			pf.accepts++
		}
	}
	var path [prefK]uint8
	for s := 1; s < n; s++ {
		nd := &t.Nodes[s]
		d := int(nd.Depth)
		if d > prefK || (d < prefK && nd.NumOut == 0) {
			continue
		}
		for j, cur := d-1, int32(s); j >= 0; j-- {
			path[j] = pf.class[t.Nodes[cur].Char]
			cur = t.Nodes[cur].Parent
		}
		insert(path[:d])
	}
	if len(nodes) > pfMaxStates {
		return nil
	}
	pf.states = len(nodes)

	// Breadth-first: fail links, suspect closure (a state is suspect when
	// any suffix of its path is accept), and in-place DFA resolution of
	// missing transitions — a node's fail is shallower, so its row is
	// already resolved when the node is reached.
	queue := make([]int32, 0, len(nodes))
	for c, v := range next[:nc] {
		if v == ac.None {
			next[c] = 0
			continue
		}
		nodes[v].fail = 0
		queue = append(queue, v)
	}
	nodes[0].suspect = nodes[0].accept
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		nu := &nodes[u]
		nu.suspect = nu.accept || nodes[nu.fail].suspect
		row, failRow := next[int(u)*nc:][:nc], next[int(nu.fail)*nc:][:nc]
		for c, v := range row {
			if v == ac.None {
				row[c] = failRow[c]
				continue
			}
			nodes[v].fail = failRow[c]
			queue = append(queue, v)
		}
	}

	// Bake the packed table at the fixed row stride. Slots past nClasses
	// are never addressed (class values are always < nClasses); they stay
	// zero, which reads as "start state, not suspect" — consistent, since
	// the start state is never suspect (no pattern is empty).
	pf.tab = make([]uint16, len(nodes)<<pfStrideBits)
	for s := range nodes {
		for c, v := range next[s*nc:][:nc] {
			e := uint16(v)
			if nodes[v].suspect {
				e |= pfSuspect
			}
			pf.tab[s<<pfStrideBits|c] = e
		}
	}
	// Pre-compose row 0 with the class map: the skim loop's start-state
	// fast path is one byte-indexed load, no class indirection.
	for b := 0; b < 256; b++ {
		pf.rootTab[b] = pf.tab[int(pf.class[b])]
	}
	return pf
}

// PrefilterStats reports the lossy stage's layout and its runtime skim
// accounting across all scanners sharing the machine.
type PrefilterStats struct {
	States      int  // collapsed DFA states
	Classes     int  // collapsed alphabet size (class 0 = non-prefix bytes)
	AcceptPaths int  // truncated accept strings inserted
	TableBytes  int  // transition table + byte-indexed root row
	Folded      bool // distinct prefix bytes exceeded the class budget

	SkimmedBytes   uint64 // bytes cleared by the lossy machine alone
	ExactBytes     uint64 // bytes run through the exact kernel (incl. rescans)
	SuspectWindows uint64 // skim→exact handoffs
	// SuspectRate is SuspectWindows per skimmed byte — the false-alarm
	// density on the traffic actually seen (0 when nothing was skimmed).
	SuspectRate float64
}

// Stats snapshots the prefilter's layout and runtime counters.
func (pf *Prefilter) Stats() PrefilterStats {
	st := PrefilterStats{
		States:         pf.states,
		Classes:        pf.nClasses,
		AcceptPaths:    pf.accepts,
		TableBytes:     len(pf.tab)*2 + len(pf.rootTab)*2,
		Folded:         pf.folded,
		SkimmedBytes:   pf.skimmedBytes.Load(),
		ExactBytes:     pf.exactBytes.Load(),
		SuspectWindows: pf.suspectWindows.Load(),
	}
	if st.SkimmedBytes > 0 {
		st.SuspectRate = float64(st.SuspectWindows) / float64(st.SkimmedBytes)
	}
	return st
}

// verifySuperset proves the prefilter admits no false negatives, in the
// spirit of verifyTransitions: for every state of t, the machine's trie, that
// terminates an accept window — depth exactly prefK, or a shallower state where a
// whole pattern ends — walking the collapsed form of its path from the
// prefilter's start state must land on a suspect-flagged entry. Combined
// with the longest-suffix property of the collapsed DFA and the suspect
// closure over fail links, this extends to every runtime position (see the
// file comment); the scan-level property tests and fuzzer check that
// empirically. It also checks the packed table's structural invariant that
// the suspect flag is a pure function of the target state.
func (m *Machine) verifySuperset(t *ac.Trie) error {
	pf := m.pre
	if pf == nil {
		return fmt.Errorf("core: no prefilter compiled for this machine")
	}

	sus := make([]int8, pf.states) // -1 suspect, +1 clean, 0 unseen
	for i, e := range pf.tab {
		v := int(e & pfStateMask)
		want := int8(1)
		if e&pfSuspect != 0 {
			want = -1
		}
		if sus[v] == 0 {
			sus[v] = want
		} else if sus[v] != want {
			return fmt.Errorf("core: prefilter entry %d disagrees on suspect flag of state %d", i, v)
		}
	}

	var path [prefK]byte
	for s := 1; s < t.NumStates(); s++ {
		nd := &t.Nodes[s]
		d := int(nd.Depth)
		if d > prefK || (d < prefK && nd.NumOut == 0) {
			continue
		}
		for j, cur := d-1, int32(s); j >= 0; j-- {
			path[j] = t.Nodes[cur].Char
			cur = t.Nodes[cur].Parent
		}
		st, e := 0, uint16(0)
		for _, c := range path[:d] {
			e = pf.tab[st<<pfStrideBits|int(pf.class[c])]
			st = int(e & pfStateMask)
		}
		if e&pfSuspect == 0 {
			return fmt.Errorf(
				"core: prefilter false negative: exact state %d (depth %d, window %q) not flagged suspect",
				s, d, path[:d])
		}
	}
	return nil
}

// The prefiltered backend is the two-stage pipeline: skim with the lossy
// machine while the exact machine is provably at the start state, drop to
// the exact baked kernel through suspect windows, return to skimming at the
// next start-state boundary. Its per-stream state is the skim cursor and
// tail ring in Regs; everything else is the shared Machine.

func (r *Regs) enterSkim() {
	r.skimming = true
	r.skimStart = r.pos
	r.pfState = 0
}

func (r *Regs) pushTailByte(c byte) {
	if r.tailLen == pfTailLen {
		copy(r.tail[:], r.tail[1:])
		r.tail[pfTailLen-1] = c
		return
	}
	r.tail[r.tailLen] = c
	r.tailLen++
}

// trueRegisters materializes the exact register file mid-skim. Sound
// because the skim invariant bounds the true depth by prefK−1, so the true
// state — the longest stream suffix that is a trie node — is determined by
// the last prefK−1 seen bytes, all inside the tail ring: it is where the
// DFA stands, history included, after the ring's bytes as a packet of their
// own, and from the start state the kernel's step is the DFA (verifyProgram).
func (m *Machine) trueRegisters(r *Regs) (int32, uint32) {
	st, hist := ac.Root, uint32(histUnknown)
	for _, c := range r.tail[:r.tailLen] {
		st, hist = m.prog.step(st, hist, c)
	}
	return st, hist
}

// stepPrefiltered is the register-machine view: it always runs exact
// semantics, materializing the registers out of a skim first, and re-arms
// the skimmer whenever the machine lands back on the start state.
func (m *Machine) stepPrefiltered(r *Regs, c byte) int32 {
	if r.skimming {
		r.state, r.hist = m.trueRegisters(r)
		r.skimming = false
	}
	r.state, r.hist = m.prog.step(r.state, r.hist, c)
	r.pos++
	r.pushTailByte(c)
	if r.state == ac.Root {
		r.enterSkim()
	}
	return r.state
}

// byteAt reads the stream byte at absolute position j from the current
// chunk or the tail ring; ok is false when j precedes the seen window
// (stream start, Reset, or a SkipAhead gap).
func (r *Regs) byteAt(data []byte, chunkBase, j int) (byte, bool) {
	if j >= chunkBase {
		return data[j-chunkBase], true
	}
	if d := chunkBase - j; d >= 1 && d <= int(r.tailLen) {
		return r.tail[int(r.tailLen)-d], true
	}
	return 0, false
}

// skimChunk advances the lossy machine over data[i:] until a suspect entry
// fires or the chunk ends, returning the next unconsumed index and whether
// the last consumed byte was flagged suspect. The loop is deliberately
// branchless on the state: traffic that hovers near the start state (short
// excursions into depth 1-2 every few bytes) makes any "am I at the start
// state" test an unpredictable branch, and the mispredictions cost more
// than the class indirection they would skip. The only branch taken on
// clean bytes is the rare, well-predicted suspect test; the per-byte
// dependency chain is shift, OR, one strided load.
func (pf *Prefilter) skimChunk(r *Regs, data []byte, i int) (int, bool) {
	tab, class := pf.tab, &pf.class
	st := uint32(r.pfState)
	n := len(data)
	for i < n {
		e := tab[st<<pfStrideBits|uint32(class[data[i]])]
		i++
		st = uint32(e & pfStateMask)
		if e&pfSuspect != 0 {
			r.pfState = uint16(st)
			return i, true
		}
	}
	r.pfState = uint16(st)
	return i, false
}

// rebuild runs the exact kernel through a suspect window: the skimmer
// flagged the byte at data[i-1] (stream position chunkBase+i-1). Restart
// at s = max(suspect−prefK+1, skim start) — the clamp keeps previously
// exact-scanned bytes from being re-emitted — with the true history bytes
// s−2, s−1, and scan through the suspect byte. Per the soundness argument
// in the file comment this emits exactly the true matches ending at the
// suspect boundary and leaves the registers equal to the true machine's.
func (m *Machine) rebuild(r *Regs, data []byte, i, chunkBase int, out []ac.Match) []ac.Match {
	a := chunkBase + i - 1
	s := max(a+1-prefK, r.skimStart)
	var state int32
	var hist uint32
	if s-2 >= chunkBase {
		// Fast path — the whole window and both history bytes sit in the
		// current chunk (every suspect more than prefK+1 bytes into a
		// chunk), so the exact kernel can run straight over the chunk
		// slice: no tail-ring reads, no window copy.
		lo := s - chunkBase
		state, hist, _, out = m.prog.scanAppend(
			ac.Root, fuseHist(int16(data[lo-2]), int16(data[lo-1])), s, data[lo:i], out)
	} else {
		h2, h1 := HistNone, HistNone
		if c, ok := r.byteAt(data, chunkBase, s-2); ok {
			h2 = int16(c)
		}
		if c, ok := r.byteAt(data, chunkBase, s-1); ok {
			h1 = int16(c)
		}
		// The window bytes [s, a] are always within the seen region: s is
		// at most prefK−1 bytes behind the suspect byte and never precedes
		// the skim segment start.
		var win [prefK]byte
		w := 0
		for j := s; j <= a; j++ {
			win[w], _ = r.byteAt(data, chunkBase, j)
			w++
		}
		state, hist, _, out = m.prog.scanAppend(ac.Root, fuseHist(h2, h1), s, win[:w], out)
	}
	r.state, r.hist = state, hist
	if state == ac.Root {
		r.enterSkim()
	} else {
		r.skimming = false
	}
	return out
}

func (m *Machine) scanPrefiltered(r *Regs, data []byte, out []ac.Match) []ac.Match {
	pf, prog := m.pre, m.prog
	chunkBase := r.pos
	i, n := 0, len(data)
	var skimmed, exact, suspects uint64
	for i < n {
		if r.skimming {
			start := i
			var hit bool
			i, hit = pf.skimChunk(r, data, i)
			skimmed += uint64(i - start)
			r.pos = chunkBase + i
			if !hit {
				break
			}
			suspects++
			exact += uint64(prefK) // rebuild rescan, counted as exact work
			out = m.rebuild(r, data, i, chunkBase, out)
			continue
		}
		before := r.pos
		r.state, r.hist, r.pos, out = prog.scanAppendStopRoot(r.state, r.hist, r.pos, data[i:], out)
		i += r.pos - before
		exact += uint64(r.pos - before)
		if r.state == ac.Root {
			r.enterSkim()
		}
	}
	// Fold the chunk into the tail ring (once per call, not per byte).
	if n >= pfTailLen {
		copy(r.tail[:], data[n-pfTailLen:])
		r.tailLen = pfTailLen
	} else if n > 0 {
		keep := min(pfTailLen-n, int(r.tailLen))
		copy(r.tail[:keep], r.tail[int(r.tailLen)-keep:r.tailLen])
		copy(r.tail[keep:], data)
		r.tailLen = uint8(keep + n)
	}
	if skimmed != 0 {
		pf.skimmedBytes.Add(skimmed)
	}
	if exact != 0 {
		pf.exactBytes.Add(exact)
	}
	if suspects != 0 {
		pf.suspectWindows.Add(suspects)
	}
	return out
}
