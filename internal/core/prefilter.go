package core

// The two-stage approximate prefilter: a tiny lossy automaton skims clean
// traffic and hands only suspect byte windows to the exact baked loop.
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
// suspect entry hands the stream to the exact loop, and skimming resumes
// from row 0. So only the states the skim loop can stand in — the
// start state and the non-suspect states reachable from it through
// non-suspect entries — get a row, numbered breadth-first from row 0. An
// entry is one byte, so a stored row of pfStride entries is one 64 B cache
// line: a suspect entry is the byte's one reserved value, pfSuspect, which
// the skim loop tests for free; any other entry is its target's row
// number.
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
// (in the spirit of verifyTransitions); the property test and
// FuzzBackendEquivalence check the runtime pipeline in lockstep.
//
// Suspect-window rebuild. When suspect fires at stream index a, the exact
// loop restarts from the start state at r = a−K+1 — or, when that would
// rescan exact-scanned bytes and re-emit their matches, continues from the
// registers the exact loop left — seeded with the true history bytes r−2,
// r−1. A skim
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
// forever after. A call that ends mid-skim runs the same rebuild through
// its last byte — by the superset contract the true depth there is below K
// and no match ends in the window — so every call leaves exact registers.
//
// Resuming. The baked loop is exact from any state, so the pipeline runs
// it exactChunk bytes at a time until a slice ends on a state of depth
// d < K whose path lies in the chunk. No later path starts before that
// path does, so from there on the machine runs as one started at the start
// state d bytes back would, and skimming from row 0 there is sound; a
// suspect among those d bytes sends the stream back to the exact loop.

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/ac"
)

// pfMaxRows is how many rows a one-byte entry can address beside the
// suspect flag: 0 … 254. The most any ruleset size the paper tries steps
// from is 207. A variable only so that a test can make every prefilter too
// large.
var pfMaxRows = int(pfSuspect)

const (
	// prefK is the prefilter window depth: the lossy machine proves "the
	// exact machine is below depth K and no match ends here" for clean
	// bytes. 3 matches the DTP default depth — the d2/d3 history window —
	// and keeps the collapsed table a few tens of KB on Snort-scale sets.
	prefK = 3

	// pfSuspect is a transition entry whose target state ends with an
	// accept string; any other entry is its target's row number, below
	// pfMaxRows.
	pfSuspect = uint8(0xFF)

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
// use by any number of streams.
type Prefilter struct {
	class [256]uint8 // byte → collapsed class, 0 = not in any prefix
	tab   []uint8    // rows × pfStride (row-strided): target row, or pfSuspect
	// shallow[k] is the number of exact states of depth ≤ k: state s has
	// depth ≤ k iff s < shallow[k], as states are numbered breadth-first.
	shallow  [prefK]int32
	nClasses int
	states   int // collapsed DFA states, stored rows or not
	accepts  int // accept strings inserted
	folded   bool

	// Runtime counters, added to once per ScanAppend call by every stream,
	// padded a cache line clear of the tables every call reads and of the
	// next object, so an Add invalidates no line another lane reads.
	_              [64]byte
	skimmedBytes   atomic.Uint64
	exactBytes     atomic.Uint64
	suspectWindows atomic.Uint64
	_              [64]byte
}

// CompilePrefilter builds the lossy first stage from the trie t. It returns
// nil when the stored rows do not fit the packed entry format — a row
// number shares a byte with the suspect flag, so at most pfMaxRows rows —
// in which case the prefiltered backend is simply unavailable. Build
// compiles it beside the compression and proves verifySuperset before
// keeping it — while ac.Trie.Link runs: it reads t's Depth, Char, Parent
// and NumOut only, of the states of depth ≤ K, which come first in
// breadth-first order, and the Depth of the first deeper one.
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
	prefixStates, inner := 0, 0 // trie states of depth 1..K, and of depth 1..K-1
	for s := 1; s < n && t.Nodes[s].Depth <= prefK; s++ {
		nd := &t.Nodes[s]
		prefixStates++
		if nd.Depth < prefK {
			inner++
		}
		if nd.Depth == 1 {
			first[nd.Char] = true
		} else {
			deep[nd.Char] = true
		}
	}
	at := int32(1)
	for k := range pf.shallow {
		for at < int32(n) && int(t.Nodes[at].Depth) <= k {
			at++
		}
		pf.shallow[k] = at
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

	// Collapsed goto trie over the truncated accept strings. Every node but
	// the start is the collapsed form of a distinct trie path of depth 1..K,
	// so there are at most prefixStates+1 of them. A node of depth K has no
	// child, is accept and so suspect, is never stepped from and no node's
	// fail: it has no class row. The others have theirs in one flat arena,
	// 0 where the node has no child — no goto leads to the start state —
	// node v's at next[nodes[v].at:][:nc], sized to inner+1 rows once.
	type pnode struct {
		fail    int32
		row     int32 // stored row, -1 while unnumbered or never stepped from
		at      int32 // where the class row starts in next, -1 at depth K
		accept  bool
		suspect bool
	}
	next := make([]int32, (inner+1)*nc)
	nodes := make([]pnode, 1, prefixStates+1)
	laid := int32(1) // class rows laid out, the start state's first
	insert := func(classes []uint8) {
		cur := int32(0)
		for j, c := range classes {
			slot := &next[nodes[cur].at+int32(c)]
			if *slot == 0 {
				nd := pnode{row: -1, at: -1}
				if j < prefK-1 {
					nd.at, laid = laid*int32(nc), laid+1
				}
				*slot = int32(len(nodes))
				nodes = append(nodes, nd)
			}
			cur = *slot
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
	for _, v := range next[:nc] {
		if v != 0 {
			queue = append(queue, v)
		}
	}
	nodes[0].suspect = nodes[0].accept
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		nu := &nodes[u]
		nu.suspect = nu.accept || nodes[nu.fail].suspect
		if nu.at < 0 {
			continue
		}
		row, failRow := next[nu.at:][:nc], next[nodes[nu.fail].at:][:nc]
		for c, v := range row {
			if v == 0 {
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
		for _, v := range next[nodes[order[qi]].at:][:nc] {
			if nv := &nodes[v]; !nv.suspect && nv.row < 0 {
				nv.row = int32(len(order))
				order = append(order, v)
			}
		}
	}
	if len(order) > pfMaxRows {
		return nil
	}
	pf.tab = make([]uint8, len(order)<<pfStrideBits)
	for r, s := range order {
		for c, v := range next[nodes[s].at:][:nc] {
			e := pfSuspect
			if !nodes[v].suspect {
				e = uint8(nodes[v].row)
			}
			pf.tab[r<<pfStrideBits|c] = e
		}
	}
	return pf
}

// PrefilterStats reports the lossy stage's layout and its runtime skim
// accounting across all streams sharing the machine.
type PrefilterStats struct {
	States      int  // collapsed DFA states
	Classes     int  // collapsed alphabet size (class 0 = non-prefix bytes)
	AcceptPaths int  // truncated accept strings inserted
	TableBytes  int  // transition table
	Folded      bool // distinct prefix bytes exceeded the class budget

	SkimmedBytes   uint64 // bytes cleared by the lossy machine alone
	ExactBytes     uint64 // bytes run through the exact loop (incl. rescans)
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
		TableBytes:     len(pf.tab),
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
// spirit of verifyTransitions: for every state of t, the machine's trie,
// that terminates an accept window — depth exactly prefK, or a shallower
// state where a whole pattern ends — walking the collapsed form of its path
// from row 0 must hit a suspect entry at or before its last byte. The walk
// stops at the first suspect entry, as the skim loop does. Combined with
// the longest-suffix property of the collapsed DFA and the suspect closure
// over fail links, this extends to every runtime position (see the file
// comment); the scan-level property tests and fuzzer check that
// empirically. It also checks the table's indexes (verifyEntries) and that
// shallow counts t's states of each depth below K, which a resumed skim
// steps back by; a nil stage has none. The proof reads the prefilter and t
// only, so Build runs it before the machine holds the stage, and while
// ac.Trie.Link runs: of t it reads Depth, Char, Parent and NumOut only, of
// the depth ≤ K states and the Depth of the first deeper one.
func (pf *Prefilter) verifySuperset(t *ac.Trie) error {
	if err := pf.verifyEntries(); err != nil || pf == nil {
		return err
	}
	for k, at := range pf.shallow {
		if at < 1 || int(at) > t.NumStates() || int(t.Nodes[at-1].Depth) > k || int(at) < t.NumStates() && int(t.Nodes[at].Depth) <= k {
			return fmt.Errorf("core: the prefilter counts %d states of depth ≤ %d, the trie does not", at, k)
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
		st, e := 0, uint8(0)
		for _, c := range path[:d] {
			if e = pf.tab[st<<pfStrideBits|int(pf.class[c])]; e == pfSuspect {
				break
			}
			st = int(e)
		}
		if e != pfSuspect {
			return fmt.Errorf(
				"core: prefilter false negative: exact state %d (depth %d, window %q) not flagged suspect",
				s, d, path[:d])
		}
	}
	return nil
}

// verifyEntries checks that every index the skim loop follows lands in the
// table: each class in a row's stride, each entry that is not the suspect
// flag on a stored row; a nil stage has none.
func (pf *Prefilter) verifyEntries() error {
	if pf == nil {
		return nil
	}
	if c := slices.IndexFunc(pf.class[:], func(k uint8) bool { return k >= pfStride }); c >= 0 {
		return fmt.Errorf("core: prefilter byte %#02x is in class %d, past a row's %d", c, pf.class[c], pfStride)
	}
	rows := len(pf.tab) >> pfStrideBits
	if i := slices.IndexFunc(pf.tab, func(e uint8) bool { return e != pfSuspect && int(e) >= rows }); i >= 0 {
		return fmt.Errorf("core: prefilter entry %d addresses row %d of %d stored", i, pf.tab[i], rows)
	}
	return nil
}

// The prefiltered backend is the two-stage pipeline: skim with the lossy
// machine while the exact machine is provably below depth K, drop to the
// exact baked loop through suspect windows, return to skimming at the first
// exactChunk boundary that finds the machine shallow again. A skim lives
// inside one call, which enters and leaves with exact registers, so the
// pipeline keeps no per-stream state of its own: Regs are the same on
// every backend.

// exactChunk is how many bytes the exact phase runs through the baked loop
// before it looks at the state again. Any length is exact; it trades bytes
// scanned exactly past a window's end against a call per slice.
const exactChunk = 2

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
		if e == pfSuspect {
			return i, true
		}
		st = uint32(e)
	}
	return i, false
}

// depth is exact state s's depth, or prefK when it is deeper.
func (pf *Prefilter) depth(s int32) (d int) {
	for d < prefK && s >= pf.shallow[d] {
		d++
	}
	return d
}

// histAt is the fused history register at the end of seen, for a stream
// whose history before seen's first byte was entry.
func histAt(entry uint32, seen []byte) uint32 {
	for _, c := range seen[max(len(seen)-2, 0):] {
		entry = (entry<<histLaneBits | uint32(c)) & histMask
	}
	return entry
}

// scanPrefiltered runs the pipeline over one chunk. From i, the first byte
// not yet scanned, it skims from d bytes back when the state has depth
// d < K and those bytes are in the chunk; otherwise, or when the skim flags
// a suspect before i, the exact loop runs exactChunk bytes on. A skim ends
// in a rebuild through its last byte, j−1: from the start state at
// s = j−prefK with the true history, or, when s is not past i, from the
// registers at i (see the file comment).
func (m *Machine) scanPrefiltered(r *Regs, data []byte, out []ac.Match) []ac.Match {
	pf := m.pre
	base, entry := r.pos, r.hist
	state, hist := r.state, r.hist
	var skimmed, exact, suspects uint64
	for i, n := 0, len(data); i < n; {
		j, hit := i, false
		if d := pf.depth(state); d < prefK && d <= i {
			j, hit = pf.skimChunk(data, i-d)
		}
		if j <= i {
			end := min(i+exactChunk, n)
			state, hist, _, out = m.scanAppend(state, hist, base+i, data[i:end], out)
			exact += uint64(end - i)
			i = end
			continue
		}
		skimmed += uint64(j - i)
		if hit {
			suspects++
		}
		if s := j - prefK; s > i {
			state, hist, i = ac.Root, histAt(entry, data[:s]), s
		}
		exact += uint64(j - i)
		state, hist, _, out = m.scanAppend(state, hist, base+i, data[i:j], out)
		i = j
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
