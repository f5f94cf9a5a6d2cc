package core

// Snapshot serialization: a compiled Machine can be written to a compact
// binary blob and reloaded without re-running default selection and
// compression — the software analogue of shipping the FPGA's initialized
// memory images. The blob carries the trie, which the Machine does not:
// Save is handed one, Load bakes from the blob's. Format (little endian):
//
//	magic "DTPM" | version u16 | options (3×u8 + pad) | node table |
//	pattern lengths | defaults | stored transitions | stats | crc32
//
// The trailing CRC-32 (IEEE) covers everything before it; Load rejects
// truncated or corrupted blobs and unknown versions.

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"repro/internal/ac"
)

var snapshotMagic = [4]byte{'D', 'T', 'P', 'M'}

// SnapshotVersion identifies the current blob layout.
const SnapshotVersion uint16 = 1

type countingWriter struct {
	w   io.Writer
	crc uint32
	n   int64
	err error
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	if cw.err != nil {
		return 0, cw.err
	}
	n, err := cw.w.Write(p)
	cw.crc = crc32.Update(cw.crc, crc32.IEEETable, p[:n])
	cw.n += int64(n)
	cw.err = err
	return n, err
}

func put[T any](cw *countingWriter, v T) {
	if cw.err == nil {
		cw.err = binary.Write(cw, binary.LittleEndian, v)
	}
}

// patLen is one pattern's byte length as the snapshot records it, and
// patternLengths every pattern's of t, sorted by ID: a pattern is as long as
// the state that outputs it is deep.
type patLen struct{ ID, Len int32 }

func patternLengths(t *ac.Trie) []patLen {
	var lens []patLen
	for s := range t.Nodes {
		for _, id := range t.Out(int32(s)) {
			lens = append(lens, patLen{ID: id, Len: t.Nodes[s].Depth})
		}
	}
	slices.SortFunc(lens, func(a, b patLen) int { return cmp.Compare(a.ID, b.ID) })
	return lens
}

// Save writes the snapshot of the machine and t, its ruleset's trie, to w.
func (m *Machine) Save(w io.Writer, t *ac.Trie) error {
	cw := &countingWriter{w: w}
	cw.Write(snapshotMagic[:])
	put(cw, SnapshotVersion)
	put(cw, uint8(m.Opts.D2PerChar))
	put(cw, uint8(m.Opts.D3PerChar))
	put(cw, uint8(m.Opts.MaxDepth))
	put(cw, uint8(0)) // pad

	put(cw, uint32(t.NumStates()))
	for i := range t.Nodes {
		nd := &t.Nodes[i]
		put(cw, nd.Parent)
		put(cw, nd.Fail)
		put(cw, nd.OutLink)
		put(cw, nd.Depth)
		put(cw, nd.Char)
		put(cw, nd.NumEdges)
		put(cw, nd.NumOut)
		for _, e := range t.Edges(int32(i)) {
			put(cw, e.Char)
			put(cw, e.To)
		}
		for _, id := range t.Out(int32(i)) {
			put(cw, id)
		}
	}

	// Pattern lengths, sorted by ID for determinism.
	lens := patternLengths(t)
	put(cw, uint32(len(lens)))
	put(cw, lens)

	// Defaults.
	for c := 0; c < 256; c++ {
		put(cw, m.Defaults.D1[c])
	}
	for c := 0; c < 256; c++ {
		put(cw, uint8(len(m.Defaults.D2[c])))
		for _, e := range m.Defaults.D2[c] {
			put(cw, e.Prev)
			put(cw, e.State)
		}
	}
	for c := 0; c < 256; c++ {
		put(cw, uint8(len(m.Defaults.D3[c])))
		for _, e := range m.Defaults.D3[c] {
			put(cw, e.Prev2)
			put(cw, e.Prev1)
			put(cw, e.State)
		}
	}

	// Stored transitions.
	for s := int32(0); s < int32(t.NumStates()); s++ {
		row := m.StoredRow(s)
		put(cw, uint16(len(row)))
		for _, tr := range row {
			put(cw, tr.Char)
			put(cw, tr.To)
		}
	}

	// Stats (floats as IEEE bits).
	st := &m.Stats
	put(cw, int64(st.States))
	put(cw, st.OriginalPointers)
	put(cw, math.Float64bits(st.OriginalAvg))
	put(cw, int64(st.D1Count))
	put(cw, int64(st.D2Count))
	put(cw, int64(st.D3Count))
	put(cw, st.StoredAfterD1)
	put(cw, st.StoredAfterD12)
	put(cw, st.StoredAfterD123)
	put(cw, math.Float64bits(st.AvgAfterD1))
	put(cw, math.Float64bits(st.AvgAfterD12))
	put(cw, math.Float64bits(st.AvgAfterD123))
	put(cw, st.StoredPointers)
	put(cw, math.Float64bits(st.AvgStored))
	put(cw, int64(st.MaxStoredPerState))
	put(cw, math.Float64bits(st.Reduction))

	if cw.err != nil {
		return cw.err
	}
	// Trailing checksum (not itself covered).
	return binary.Write(w, binary.LittleEndian, cw.crc)
}

type reader struct {
	r   *bytes.Reader
	err error
}

func get[T any](rd *reader, v *T) {
	if rd.err == nil {
		rd.err = binary.Read(rd.r, binary.LittleEndian, v)
	}
}

// Load reads a snapshot written by Save, validating the checksum and every
// structural invariant of the embedded automaton.
func Load(data []byte) (*Machine, error) {
	if len(data) < 12 {
		return nil, fmt.Errorf("core: snapshot too short (%d bytes)", len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	wantCRC := binary.LittleEndian.Uint32(tail)
	if got := crc32.ChecksumIEEE(body); got != wantCRC {
		return nil, fmt.Errorf("core: snapshot checksum mismatch (%#x != %#x)", got, wantCRC)
	}
	rd := &reader{r: bytes.NewReader(body)}

	var magic [4]byte
	get(rd, &magic)
	if magic != snapshotMagic {
		return nil, fmt.Errorf("core: bad snapshot magic %q", magic[:])
	}
	var version uint16
	get(rd, &version)
	if version != SnapshotVersion {
		return nil, fmt.Errorf("core: unsupported snapshot version %d (want %d)", version, SnapshotVersion)
	}
	var d2, d3, maxDepth, pad uint8
	get(rd, &d2)
	get(rd, &d3)
	get(rd, &maxDepth)
	get(rd, &pad)

	var numNodes uint32
	get(rd, &numNodes)
	if rd.err != nil {
		return nil, rd.err
	}
	if numNodes == 0 || numNodes > 1<<24 {
		return nil, fmt.Errorf("core: implausible node count %d", numNodes)
	}
	// Size the trie's two arenas by walking the node records' counts ahead
	// of the reader: 4×i32 + u8 Char + 2×u16 counts, then u8 Char + i32 To
	// per edge and an i32 per output.
	const nodeRecord = 4*4 + 1 + 2*2
	numEdges, numOuts := 0, 0
	for i, off := uint32(0), len(body)-rd.r.Len(); i < numNodes; i++ {
		if off+nodeRecord > len(body) {
			return nil, fmt.Errorf("core: snapshot ends inside the node table at state %d", i)
		}
		ne := int(binary.LittleEndian.Uint16(body[off+nodeRecord-4:]))
		no := int(binary.LittleEndian.Uint16(body[off+nodeRecord-2:]))
		numEdges += ne
		numOuts += no
		off += nodeRecord + 5*ne + 4*no
	}
	nodes := make([]ac.Node, numNodes)
	edges := make([]ac.Edge, 0, numEdges)
	outs := make([]int32, 0, numOuts)
	for i := range nodes {
		nd := &nodes[i]
		get(rd, &nd.Parent)
		get(rd, &nd.Fail)
		get(rd, &nd.OutLink)
		get(rd, &nd.Depth)
		get(rd, &nd.Char)
		get(rd, &nd.NumEdges)
		get(rd, &nd.NumOut)
		if rd.err != nil {
			return nil, rd.err
		}
		for j := 0; j < int(nd.NumEdges); j++ {
			var e ac.Edge
			get(rd, &e.Char)
			get(rd, &e.To)
			edges = append(edges, e)
		}
		for j := 0; j < int(nd.NumOut); j++ {
			var id int32
			get(rd, &id)
			outs = append(outs, id)
		}
	}

	trie, err := ac.Rebuild(nodes, edges, outs)
	if err != nil {
		if rd.err != nil {
			return nil, rd.err
		}
		return nil, err
	}
	// The pattern lengths recorded must be the ones the node table implies.
	want := patternLengths(trie)
	var numPat uint32
	get(rd, &numPat)
	lens := make([]patLen, len(want))
	get(rd, &lens)
	if rd.err == nil && (int(numPat) != len(want) || !slices.Equal(lens, want)) {
		return nil, fmt.Errorf("core: the snapshot's %d pattern lengths are not its %d outputs' depths", numPat, len(want))
	}
	m := &Machine{
		Opts:       Options{D2PerChar: int(d2), D3PerChar: int(d3), MaxDepth: int(maxDepth), Backend: BackendAuto},
		backend:    BackendAuto,
		generation: nextGeneration(),
	}
	if err := m.Opts.validate(); err != nil {
		return nil, err
	}

	for c := 0; c < 256; c++ {
		get(rd, &m.Defaults.D1[c])
	}
	for c := 0; c < 256; c++ {
		var n uint8
		get(rd, &n)
		m.Defaults.D2[c] = make([]D2Entry, n)
		for j := range m.Defaults.D2[c] {
			get(rd, &m.Defaults.D2[c][j].Prev)
			get(rd, &m.Defaults.D2[c][j].State)
		}
	}
	for c := 0; c < 256; c++ {
		var n uint8
		get(rd, &n)
		m.Defaults.D3[c] = make([]D3Entry, n)
		for j := range m.Defaults.D3[c] {
			get(rd, &m.Defaults.D3[c][j].Prev2)
			get(rd, &m.Defaults.D3[c][j].Prev1)
			get(rd, &m.Defaults.D3[c][j].State)
		}
	}

	// One arena for every state's row, sized by walking the per-state
	// counts ahead of the reader.
	total := 0
	for s, off := uint32(0), len(body)-rd.r.Len(); s < numNodes; s++ {
		if off+2 > len(body) {
			return nil, fmt.Errorf("core: snapshot ends inside the stored transitions of state %d", s)
		}
		n := int(binary.LittleEndian.Uint16(body[off:]))
		total += n
		off += 2 + 5*n // u8 Char + i32 To per entry
	}
	m.stored = make([]Transition, 0, total)
	m.storedOff = make([]uint32, numNodes+1)
	for s := uint32(0); s < numNodes; s++ {
		var n uint16
		get(rd, &n)
		if rd.err != nil {
			return nil, rd.err
		}
		for j := 0; j < int(n); j++ {
			var tr Transition
			get(rd, &tr.Char)
			get(rd, &tr.To)
			m.stored = append(m.stored, tr)
		}
		m.storedOff[s+1] = uint32(len(m.stored))
	}

	var i64 int64
	var f64 uint64
	st := &m.Stats
	get(rd, &i64)
	st.States = int(i64)
	get(rd, &st.OriginalPointers)
	get(rd, &f64)
	st.OriginalAvg = math.Float64frombits(f64)
	get(rd, &i64)
	st.D1Count = int(i64)
	get(rd, &i64)
	st.D2Count = int(i64)
	get(rd, &i64)
	st.D3Count = int(i64)
	get(rd, &st.StoredAfterD1)
	get(rd, &st.StoredAfterD12)
	get(rd, &st.StoredAfterD123)
	get(rd, &f64)
	st.AvgAfterD1 = math.Float64frombits(f64)
	get(rd, &f64)
	st.AvgAfterD12 = math.Float64frombits(f64)
	get(rd, &f64)
	st.AvgAfterD123 = math.Float64frombits(f64)
	get(rd, &st.StoredPointers)
	get(rd, &f64)
	st.AvgStored = math.Float64frombits(f64)
	get(rd, &i64)
	st.MaxStoredPerState = int(i64)
	get(rd, &f64)
	st.Reduction = math.Float64frombits(f64)
	if rd.err != nil {
		return nil, rd.err
	}
	if rd.r.Len() != 0 {
		return nil, fmt.Errorf("core: %d trailing bytes in snapshot", rd.r.Len())
	}
	// Validate state references in defaults and stored transitions.
	check := func(s int32) error {
		if s != ac.None && (s < 0 || s >= int32(numNodes)) {
			return fmt.Errorf("core: snapshot references state %d of %d", s, numNodes)
		}
		return nil
	}
	for c := 0; c < 256; c++ {
		if err := check(m.Defaults.D1[c]); err != nil {
			return nil, err
		}
		for _, e := range m.Defaults.D2[c] {
			if err := check(e.State); err != nil {
				return nil, err
			}
		}
		for _, e := range m.Defaults.D3[c] {
			if err := check(e.State); err != nil {
				return nil, err
			}
		}
	}
	for _, tr := range m.stored {
		if err := check(tr.To); err != nil {
			return nil, err
		}
	}
	// Bake the scan kernels through the same sequence Build runs. The
	// snapshot does not carry the popularity tally, so fast-tier promotion
	// is re-derived from the trie; runtime-only options
	// (DenseStates/Backend) are not part of the format and take their
	// defaults, and under BackendAuto compileBackends cannot fail.
	if err := m.compileBackends(trie, newFailTree(trie)); err != nil {
		return nil, err
	}
	return m, nil
}
