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
// accept set closed over fail links — are flagged suspect.
//
// Stored rows. The runtime never steps from a suspect state: the first
// suspect entry hands the stream to the exact kernel, and skimming resumes
// at the start state. So only the states the skim loop can stand in — the
// start state and the non-suspect states reachable from it through
// non-suspect entries — get a row, numbered breadth-first from row 0. A
// suspect entry is the bare flag in bit 15 of its uint16, which the skim
// loop tests for free; any other entry is its target's row number.
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
// would double-emit — seeded with the true history bytes r−2, r−1. A skim
// segment never outlives the ScanAppend call that began it, so those bytes
// are in the chunk or, across the call boundary, in the history register
// the call was entered with. The rescanned machine's state path is always
// a real suffix of the stream (stored transitions extend it, d2/d3 defaults fire
// only on true history bytes), so it emits only true matches; no true
// match ends strictly before a+1 by the superset contract; and after
// consuming through byte a its registers provably equal the true
// machine's: a pure DFA restart over ≥ depth(a+1) trailing bytes computes
// the true longest-suffix state, the DTP restart is sandwiched between
// that DFA restart and the true machine (defaults only ever jump *deeper*
// along true suffixes), and two identical register files stay identical
// forever after. The pipeline then stays exact until the machine returns
// to the start state, where skimming is sound again. A call that ends
// mid-skim runs the same rebuild through its last byte — by the superset
// contract the true depth there is below K and no match ends in the
// window — so every call leaves exact registers, and the next one skims
// if they stand at the start state and runs the exact kernel otherwise.

import (
	"fmt"
	"sync/atomic"

	"repro/internal/ac"
)

// pfMaxRows is how many rows the table can address beside the suspect flag.
// A variable only so that a test can make every prefilter too large.
var pfMaxRows = 1 << 15

const (
	// prefK is the prefilter window depth: the lossy machine proves "the
	// exact machine is below depth K and no match ends here" for clean
	// bytes. 3 matches the DTP default depth — the d2/d3 history window —
	// and keeps the collapsed table a few tens of KB on Snort-scale sets.
	prefK = 3

	// pfSuspect is a transition entry whose target state ends with an
	// accept string; any other entry is its target's row number, below
	// pfMaxRows.
	pfSuspect = uint16(1) << 15

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
)

// Prefilter is the compiled lossy first stage, immutable after
// CompilePrefilter except for its runtime counters; safe for concurrent
// use by any number of scanners.
type Prefilter struct {
	class    [256]uint8 // byte → collapsed class, 0 = not in any prefix
	nClasses int
	tab      []uint16 // rows × pfStride (row-strided): target row, or pfSuspect
	states   int      // collapsed DFA states, stored rows or not
	accepts  int      // accept strings inserted
	folded   bool

	// Runtime counters, accumulated once per ScanAppend chunk.
	skimmedBytes   atomic.Uint64
	exactBytes     atomic.Uint64
	suspectWindows atomic.Uint64
}

// CompilePrefilter builds the lossy first stage from the trie t. It returns
// nil when the stored rows do not fit the packed entry format (row numbers
// share a uint16 with the suspect flag), in which case the prefiltered
// backend is simply unavailable. Build compiles it automatically alongside
// the baked Program and proves verifySuperset before keeping it — while
// ac.Trie.Link runs: it reads t's Depth, Char, Parent and NumOut only, of
// the states of depth ≤ K, which come first in breadth-first order.
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
	for s := 1; s < n && t.Nodes[s].Depth <= prefK; s++ {
		prefixStates++
		if nd := &t.Nodes[s]; nd.Depth == 1 {
			first[nd.Char] = true
		} else {
			deep[nd.Char] = true
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
		row     int32 // stored row, -1 while unnumbered or never stepped from
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
				nodes = append(nodes, pnode{row: -1})
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
	for s := 1; s <= prefixStates; s++ {
		nd := &t.Nodes[s]
		d := int(nd.Depth)
		if d < prefK && nd.NumOut == 0 {
			continue
		}
		for j, cur := d-1, int32(s); j >= 0; j-- {
			path[j] = pf.class[t.Nodes[cur].Char]
			cur = t.Nodes[cur].Parent
		}
		insert(path[:d])
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

	// Number the states the skim loop stands in, breadth-first from the
	// start state through non-suspect entries (the BFS queue is spent, so
	// it holds the order), and bake their rows at the fixed stride. Slots
	// past nClasses are never addressed (class values are always <
	// nClasses); they stay zero, which reads as "row 0, not suspect" —
	// consistent, since the start state is never suspect (no pattern is
	// empty).
	order := append(queue[:0], 0)
	for qi := 0; qi < len(order); qi++ {
		for _, v := range next[int(order[qi])*nc:][:nc] {
			if nv := &nodes[v]; !nv.suspect && nv.row < 0 {
				nv.row = int32(len(order))
				order = append(order, v)
			}
		}
	}
	if len(order) > pfMaxRows {
		return nil
	}
	pf.tab = make([]uint16, len(order)<<pfStrideBits)
	for r, s := range order {
		for c, v := range next[int(s)*nc:][:nc] {
			e := pfSuspect
			if !nodes[v].suspect {
				e = uint16(nodes[v].row)
			}
			pf.tab[r<<pfStrideBits|c] = e
		}
	}
	return pf
}

// PrefilterStats reports the lossy stage's layout and its runtime skim
// accounting across all scanners sharing the machine.
type PrefilterStats struct {
	States      int  // collapsed DFA states
	Classes     int  // collapsed alphabet size (class 0 = non-prefix bytes)
	AcceptPaths int  // truncated accept strings inserted
	TableBytes  int  // transition table
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
		TableBytes:     len(pf.tab) * 2,
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

// verifySuperset proves the machine's prefilter: see Prefilter.verifySuperset.
func (m *Machine) verifySuperset(t *ac.Trie) error { return m.pre.verifySuperset(t) }

// verifySuperset proves the prefilter admits no false negatives, in the
// spirit of verifyTransitions: for every state of t, the machine's trie, that
// terminates an accept window — depth exactly prefK, or a shallower state where a
// whole pattern ends — walking the collapsed form of its path from row 0
// must hit a suspect entry at or before its last byte. The walk stops at
// the first suspect entry, as the skim loop does. Combined
// with the longest-suffix property of the collapsed DFA and the suspect
// closure over fail links, this extends to every runtime position (see the
// file comment); the scan-level property tests and fuzzer check that
// empirically. It also checks the compact table's structural invariant:
// a suspect entry is the bare flag, and every other entry addresses a
// stored row. The proof reads the prefilter and t only, so Build runs it
// before the machine holds the stage, and while ac.Trie.Link runs: of t it
// reads Depth, Char, Parent and NumOut only, of the depth ≤ K states.
func (pf *Prefilter) verifySuperset(t *ac.Trie) error {
	if pf == nil {
		return fmt.Errorf("core: no prefilter compiled for this machine")
	}

	rows := len(pf.tab) >> pfStrideBits
	for i, e := range pf.tab {
		if e&pfSuspect != 0 && e != pfSuspect {
			return fmt.Errorf("core: prefilter entry %d is suspect but carries row %d", i, e&^pfSuspect)
		}
		if e&pfSuspect == 0 && int(e) >= rows {
			return fmt.Errorf("core: prefilter entry %d addresses row %d of %d stored", i, e, rows)
		}
	}

	var path [prefK]byte
	for s := 1; s < t.NumStates() && t.Nodes[s].Depth <= prefK; s++ {
		nd := &t.Nodes[s]
		d := int(nd.Depth)
		if d < prefK && nd.NumOut == 0 {
			continue
		}
		for j, cur := d-1, int32(s); j >= 0; j-- {
			path[j] = t.Nodes[cur].Char
			cur = t.Nodes[cur].Parent
		}
		st, e := 0, uint16(0)
		for _, c := range path[:d] {
			if e = pf.tab[st<<pfStrideBits|int(pf.class[c])]; e&pfSuspect != 0 {
				break
			}
			st = int(e)
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
// next start-state boundary. A skim lives inside one call, which enters and
// leaves with exact registers, so the pipeline keeps no per-stream state of
// its own: Regs are the same on every backend.

// skimChunk advances the lossy machine from row 0 over data[i:] until a
// suspect entry fires or the chunk ends, returning the next unconsumed
// index and whether the last consumed byte was flagged suspect. The loop is
// deliberately branchless on the state: traffic that hovers near the start
// state (short excursions into depth 1-2 every few bytes) makes any "am I
// at the start state" test an unpredictable branch, and the mispredictions
// cost more than the class indirection they would skip. The only branch
// taken on clean bytes is the rare, well-predicted suspect test; the
// per-byte dependency chain is shift, OR, one strided load.
func (pf *Prefilter) skimChunk(data []byte, i int) (int, bool) {
	tab, class := pf.tab, &pf.class
	st := uint32(0)
	for n := len(data); i < n; {
		e := tab[st<<pfStrideBits|uint32(class[data[i]])]
		i++
		if e&pfSuspect != 0 {
			return i, true
		}
		st = uint32(e)
	}
	return i, false
}

// histAt is the fused history register at the end of seen, for a stream
// whose history before seen's first byte was entry.
func histAt(entry uint32, seen []byte) uint32 {
	for _, c := range seen[max(len(seen)-2, 0):] {
		entry = (entry<<histLaneBits | uint32(c)) & histMask
	}
	return entry
}

// scanPrefiltered runs the pipeline over one chunk. Each skim segment ends
// in a rebuild — at the suspect byte, or at the chunk's end: the exact
// kernel restarts from the start state at s = max(end−prefK, segment start)
// — the clamp keeps previously exact-scanned bytes from being re-emitted —
// with the true history bytes s−2, s−1, from the chunk or the registers the
// call was entered with, and scans through the segment's last byte. Per the
// soundness argument in the file comment this emits exactly the true
// matches ending at that byte and leaves the registers equal to the true
// machine's.
func (m *Machine) scanPrefiltered(r *Regs, data []byte, out []ac.Match) []ac.Match {
	pf, prog := m.pre, m.prog
	base, entry := r.pos, r.hist
	state, hist := r.state, r.hist
	var skimmed, exact, suspects uint64
	for i, n := 0, len(data); i < n; {
		if state != ac.Root {
			var pos int
			state, hist, pos, out = prog.scanAppendStopRoot(state, hist, base+i, data[i:], out)
			exact += uint64(pos - base - i)
			i = pos - base
			continue
		}
		start := i
		var hit bool
		i, hit = pf.skimChunk(data, i)
		skimmed += uint64(i - start)
		if hit {
			suspects++
		}
		s := max(i-prefK, start)
		exact += uint64(i - s)
		state, hist, _, out = prog.scanAppend(ac.Root, histAt(entry, data[:s]), base+s, data[s:i], out)
	}
	r.state, r.hist, r.pos = state, hist, base+len(data)
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
