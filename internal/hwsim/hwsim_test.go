package hwsim

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/ac"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/rng"
	"repro/internal/ruleset"
)

func toySet() *ruleset.Set {
	return &ruleset.Set{Patterns: []ruleset.Pattern{
		{ID: 0, Data: []byte("he")},
		{ID: 1, Data: []byte("she")},
		{ID: 2, Data: []byte("his")},
		{ID: 3, Data: []byte("hers")},
	}}
}

func mustPack(t *testing.T, set *ruleset.Set, opts core.Options) *Image {
	t.Helper()
	m, err := core.Build(set, opts)
	if err != nil {
		t.Fatal(err)
	}
	img, err := Pack(m)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// --- layout ---

func TestTypeInfoTable(t *testing.T) {
	cases := []struct {
		st   StateType
		off  int
		unit int
		max  int
	}{
		{1, 0, 1, 1}, {2, 1, 1, 1}, {9, 8, 1, 1},
		{10, 0, 3, 4}, {11, 3, 3, 4}, {12, 6, 3, 4},
		{13, 0, 5, 7}, {14, 0, 7, 10}, {15, 0, 9, 13},
	}
	for _, tc := range cases {
		info := tc.st.Info()
		if info.UnitOffset != tc.off || info.Units != tc.unit || info.MaxPtrs != tc.max {
			t.Errorf("type %d: got %+v, want off=%d units=%d max=%d",
				tc.st, info, tc.off, tc.unit, tc.max)
		}
	}
}

func TestTypeInfoInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("type 0 did not panic")
		}
	}()
	StateType(0).Info()
}

func TestStateSizesMatchFigure3(t *testing.T) {
	// Figure 3 caption arithmetic: 12-bit match field + 24 bits per pointer.
	sizes := []struct {
		ptrs, units int
	}{
		{0, 1}, {1, 1}, // 12+24 = 36
		{2, 3}, {4, 3}, // 12+96 = 108
		{5, 5}, {7, 5}, // 12+168 = 180
		{8, 7}, {10, 7}, // 12+240 = 252
		{11, 9}, {13, 9}, // 12+312 = 324
	}
	for _, tc := range sizes {
		got, err := unitsForPtrs(tc.ptrs)
		if err != nil || got != tc.units {
			t.Errorf("unitsForPtrs(%d) = %d, %v; want %d", tc.ptrs, got, err, tc.units)
		}
	}
	if _, err := unitsForPtrs(14); err == nil {
		t.Error("14 pointers accepted; hardware maximum is 13")
	}
}

func TestTypeForPlacements(t *testing.T) {
	valid := []struct {
		units, off int
		want       StateType
	}{
		{1, 0, 1}, {1, 8, 9}, {3, 0, 10}, {3, 3, 11}, {3, 6, 12},
		{5, 0, 13}, {7, 0, 14}, {9, 0, 15},
	}
	for _, tc := range valid {
		got, err := typeFor(tc.units, tc.off)
		if err != nil || got != tc.want {
			t.Errorf("typeFor(%d,%d) = %d, %v; want %d", tc.units, tc.off, got, err, tc.want)
		}
	}
	invalid := [][2]int{{3, 1}, {3, 7}, {5, 3}, {7, 2}, {9, 1}, {1, 9}}
	for _, tc := range invalid {
		if _, err := typeFor(tc[0], tc[1]); err == nil {
			t.Errorf("typeFor(%d,%d) accepted", tc[0], tc[1])
		}
	}
}

// --- packing ---

func TestPackToy(t *testing.T) {
	img := mustPack(t, toySet(), core.Options{})
	if img.Root != (StateLoc{Word: 0, Type: 1}) {
		t.Fatalf("root at %+v, want word 0 type 1", img.Root)
	}
	// 10 states, 9 of them 1-unit (≤1 stored pointer each after the Figure 2
	// compression) and one with exactly 1 pointer: everything fits 2 words.
	if img.Stats.StateWords > 2 {
		t.Fatalf("toy machine used %d words, want ≤2", img.Stats.StateWords)
	}
	if img.Stats.MatchStates != 5 {
		// States with outputs: he, she, his, hers, and "she"'s he-suffix
		// state... (she inherits he via fail) — recount: he, she(+he), his,
		// hers. The trie states carrying output sets are he, she, his, hers
		// and the hers-prefix state "her"? No — her has no output. she's
		// output set is {she, he}. So 4 matching states.
		if img.Stats.MatchStates != 4 {
			t.Fatalf("match states = %d, want 4", img.Stats.MatchStates)
		}
	}
}

func TestPackMatchMemoryContents(t *testing.T) {
	img := mustPack(t, toySet(), core.Options{})
	// "she" ends at a state matching both she (1) and he (0): one word with
	// two IDs and the last flag.
	trie, err := ac.New(toySet())
	if err != nil {
		t.Fatal(err)
	}
	var sheState int32 = -1
	for s := range trie.Nodes {
		if trie.Nodes[s].Depth == 3 && trie.Nodes[s].Char == 'e' {
			// depth-3 ending in 'e' is "she"
			sheState = int32(s)
		}
	}
	if sheState < 0 {
		t.Fatal("state for 'she' not found")
	}
	valid, addr := img.readMatchField(img.Loc[sheState])
	if !valid {
		t.Fatal("'she' state has no match field")
	}
	word := img.Match[addr]
	id1 := word & 0x1FFF
	id2 := word >> 13 & 0x1FFF
	last := word>>26&1 == 1
	if !last {
		t.Fatal("last flag not set on single match word")
	}
	ids := map[uint32]bool{id1: true, id2: true}
	if !ids[1] || !ids[0] {
		t.Fatalf("match word holds %d,%d; want {0,1}", id1, id2)
	}
}

// TestPackMatchListsAscendingSameLayout: the match memory holds each
// matching state's string numbers in ascending order — the machine's output
// lists are stored sorted — and sorting moved nothing else: every state has
// the match address, and the memory the word count, that laying the lists
// out in the trie's output-chain order gives.
func TestPackMatchListsAscendingSameLayout(t *testing.T) {
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 634, Seed: 2010})
	img := mustPack(t, set, core.Options{})
	trie, err := ac.New(set)
	if err != nil {
		t.Fatal(err)
	}
	chainAddr := map[string]int32{} // chain-order list → address, first come first placed
	words, multi := int32(0), 0
	for s := int32(0); s < int32(trie.NumStates()); s++ {
		chain := trie.AppendOutputs(s, 0, nil)
		if len(chain) == 0 {
			if img.matchAddr[s] != -1 {
				t.Fatalf("state %d ends nothing but has match address %d", s, img.matchAddr[s])
			}
			continue
		}
		key := fmt.Sprint(chain)
		if _, placed := chainAddr[key]; !placed {
			chainAddr[key] = words
			words += int32(len(chain)+1) / 2
		}
		if img.matchAddr[s] != chainAddr[key] {
			t.Fatalf("state %d: match address %d, chain-order layout %d", s, img.matchAddr[s], chainAddr[key])
		}
		var got []int32
		for a := img.matchAddr[s]; ; a++ {
			w := img.Match[a]
			got = append(got, int32(w&0x1FFF))
			if id2 := int32(w >> 13 & 0x1FFF); id2 != MatchPadID {
				got = append(got, id2)
			}
			if w>>26&1 == 1 {
				break
			}
		}
		ac.SortMatches(chain)
		if len(got) != len(chain) {
			t.Fatalf("state %d: %d string numbers stored, %d end there", s, len(got), len(chain))
		}
		for i, id := range got {
			if id != chain[i].PatternID {
				t.Fatalf("state %d: stored list %v is not the chain's numbers ascending", s, got)
			}
		}
		if len(got) > 1 {
			multi++
		}
	}
	if int(words) != img.Stats.MatchWordsUsed {
		t.Fatalf("%d match words used, chain-order layout %d", img.Stats.MatchWordsUsed, words)
	}
	if multi == 0 {
		t.Fatal("no state ends two strings: the order is untested")
	}
}

func TestPackOddMatchListUsesPad(t *testing.T) {
	set := &ruleset.Set{Patterns: []ruleset.Pattern{
		{ID: 7, Data: []byte("abc")},
	}}
	img := mustPack(t, set, core.Options{})
	if img.Stats.MatchWordsUsed != 1 {
		t.Fatalf("match words = %d, want 1", img.Stats.MatchWordsUsed)
	}
	word := img.Match[0]
	if word&0x1FFF != 7 {
		t.Fatalf("first ID = %d, want 7", word&0x1FFF)
	}
	if word>>13&0x1FFF != MatchPadID {
		t.Fatalf("second ID = %d, want pad %d", word>>13&0x1FFF, MatchPadID)
	}
}

func TestPackNoGaps(t *testing.T) {
	// §IV.A: "states are carefully assigned a state type and memory word
	// after it has been built to insure no gaps of unused memory". With a
	// big machine, fill ratio must be near 1 (only the final partial words
	// of each class may leak units).
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 1500, Seed: 61})
	img := mustPack(t, set, core.Options{})
	if img.Stats.FillRatio < 0.95 {
		t.Fatalf("fill ratio %.3f, want >= 0.95", img.Stats.FillRatio)
	}
}

func TestPackLocTypesMatchStoredCounts(t *testing.T) {
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 800, Seed: 62})
	img := mustPack(t, set, core.Options{})
	for s, loc := range img.Loc {
		info := loc.Type.Info()
		n := len(img.Machine.StoredRow(int32(s)))
		if n > info.MaxPtrs {
			t.Fatalf("state %d: %d pointers in type %d (max %d)", s, n, loc.Type, info.MaxPtrs)
		}
		// No over-allocation either: the packer must use the smallest class.
		units, _ := unitsForPtrs(n)
		if info.Units != units {
			t.Fatalf("state %d: %d pointers placed in %d-unit class, want %d",
				s, n, info.Units, units)
		}
	}
}

func TestPackPointerRoundTrip(t *testing.T) {
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 500, Seed: 63})
	img := mustPack(t, set, core.Options{})
	m := img.Machine
	for s := int32(0); s < int32(len(img.Loc)); s++ {
		for i, tr := range m.StoredRow(s) {
			char, to, ok := img.readPtr(img.Loc[s], i)
			if !ok {
				t.Fatalf("state %d pointer %d: slot empty", s, i)
			}
			if char != tr.Char() || to != img.Loc[tr.To()] {
				t.Fatalf("state %d pointer %d: decoded (%#x,%+v), want (%#x,%+v)",
					s, i, char, to, tr.Char(), img.Loc[tr.To()])
			}
		}
		// The slot after the last pointer must be empty (or out of range).
		info := img.Loc[s].Type.Info()
		if n := len(m.StoredRow(s)); n < info.MaxPtrs {
			if _, _, ok := img.readPtr(img.Loc[s], n); ok {
				t.Fatalf("state %d: phantom pointer in slot %d", s, n)
			}
		}
	}
}

func TestPackedLUTRowBits(t *testing.T) {
	img := mustPack(t, toySet(), core.Options{})
	// Row for 'e': d1 absent (no pattern starts with e), one d2 entry
	// (prev 'h' → "he"), one d3 entry (prev "sh" → "she").
	row := img.LUT['e']
	if row.D1Valid {
		t.Error("d1['e'] valid; no pattern starts with e")
	}
	if row.Packed.Bit(0) != 0 {
		t.Error("packed d1 bit set")
	}
	if !row.D2[0].Valid || row.D2[0].Prev != 'h' {
		t.Errorf("d2['e'][0] = %+v, want prev 'h'", row.D2[0])
	}
	if got := row.Packed.Field(1, 8); got != 'h' {
		t.Errorf("packed d2 prev = %#x, want 'h'", got)
	}
	if row.Packed.Bit(49) != 1 {
		t.Error("packed d2 valid bit clear")
	}
	if !row.D3.Valid || row.D3.Prev2 != 's' || row.D3.Prev1 != 'h' {
		t.Errorf("d3['e'] = %+v, want prev2 's' prev1 'h'", row.D3)
	}
	if got := row.Packed.Field(33, 8); got != 's' {
		t.Errorf("packed d3 prev2 = %#x", got)
	}
	if row.Packed.Bit(53) != 1 {
		t.Error("packed d3 valid bit clear")
	}
	if row.Packed.Len() != LUTRowBitsModel {
		t.Errorf("row width %d, want %d", row.Packed.Len(), LUTRowBitsModel)
	}
}

// --- engine ---

func TestEngineMatchesSoftwareMachine(t *testing.T) {
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 400, Seed: 64})
	img := mustPack(t, set, core.Options{})
	m := img.Machine
	e := NewEngine(img)
	sc := m.NewScanner()

	src := rng.New(99)
	data := make([]byte, 4000)
	for i := range data {
		data[i] = src.Byte()
	}
	for k := 0; k < 8; k++ {
		p := set.Patterns[src.Intn(set.Len())]
		copy(data[src.Intn(len(data)-len(p.Data)):], p.Data)
	}
	for i, c := range data {
		res := e.Step(c)
		state := sc.Step(c)
		if res.Loc != img.Loc[state] {
			t.Fatalf("byte %d: engine at %+v, software at state %d (%+v)",
				i, res.Loc, state, img.Loc[state])
		}
		wantMatch := len(m.AppendOutputs(state, 0, nil)) > 0
		if res.Match != wantMatch {
			t.Fatalf("byte %d: engine match=%v, software=%v", i, res.Match, wantMatch)
		}
	}
	if e.Cycles != int64(len(data)) {
		t.Fatalf("engine spent %d cycles on %d bytes", e.Cycles, len(data))
	}
}

func TestEngineOneCyclePerByteOnAdversarialInput(t *testing.T) {
	// Input engineered to maximize default-transition misses and stored-
	// pointer hits: repeated prefixes of the longest pattern. The cycle
	// count must stay exactly len(input) — the architecture's guarantee.
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 200, Seed: 65})
	img := mustPack(t, set, core.Options{})
	longest := set.Patterns[0]
	for _, p := range set.Patterns {
		if len(p.Data) > len(longest.Data) {
			longest = p
		}
	}
	var data []byte
	for len(data) < 4096 {
		for l := 1; l <= len(longest.Data) && len(data) < 4096; l++ {
			data = append(data, longest.Data[:l]...)
		}
	}
	e := NewEngine(img)
	for _, c := range data {
		e.Step(c)
	}
	if e.Cycles != int64(len(data)) {
		t.Fatalf("%d cycles for %d bytes; 1 char/cycle violated", e.Cycles, len(data))
	}
}

func TestEngineResetClearsHistory(t *testing.T) {
	set := &ruleset.Set{Patterns: []ruleset.Pattern{
		{ID: 0, Data: []byte("abc")},
		{ID: 1, Data: []byte("c")},
	}}
	img := mustPack(t, set, core.Options{})
	e := NewEngine(img)
	e.Step('a')
	e.Step('b')
	e.Reset()
	res := e.Step('c')
	// Without the reset the depth-3 default for 'c' (history "ab") could
	// fire and falsely match "abc"; with it we must land on the depth-1
	// state for 'c' (matching only pattern 1).
	valid, addr := img.readMatchField(res.Loc)
	if !valid {
		t.Fatal("no match after c")
	}
	word := img.Match[addr]
	if word&0x1FFF != 1 {
		t.Fatalf("matched pattern %d, want 1", word&0x1FFF)
	}
	if word>>26&1 != 1 {
		t.Fatal("last flag missing")
	}
}

// --- block ---

func TestBlockFindsEmbeddedPatterns(t *testing.T) {
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 300, Seed: 66})
	img := mustPack(t, set, core.Options{})
	block := NewBlock(img)

	src := rng.New(100)
	var packets []Packet
	type want struct {
		packet int
		id     int32
	}
	var embedded []want
	for pid := 0; pid < 12; pid++ {
		payload := make([]byte, 600+src.Intn(400))
		for i := range payload {
			payload[i] = src.Byte()
		}
		p := set.Patterns[src.Intn(set.Len())]
		copy(payload[src.Intn(len(payload)-len(p.Data)):], p.Data)
		embedded = append(embedded, want{packet: pid, id: int32(p.ID)})
		packets = append(packets, Packet{ID: pid, Payload: payload})
	}
	outputs, err := block.ScanPackets(packets)
	if err != nil {
		t.Fatal(err)
	}
	found := make(map[want]bool)
	for _, o := range outputs {
		found[want{packet: o.PacketID, id: o.PatternID}] = true
	}
	for _, w := range embedded {
		if !found[w] {
			t.Errorf("embedded pattern %d in packet %d not reported", w.id, w.packet)
		}
	}
}

func TestBlockAgreesWithOracle(t *testing.T) {
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 150, Seed: 67})
	img := mustPack(t, set, core.Options{})
	block := NewBlock(img)
	oracle := ac.NewOracle(set)

	src := rng.New(101)
	var packets []Packet
	for pid := 0; pid < 9; pid++ {
		payload := make([]byte, 500)
		for i := range payload {
			payload[i] = src.Byte()
		}
		for k := 0; k < 3; k++ {
			p := set.Patterns[src.Intn(set.Len())]
			copy(payload[src.Intn(len(payload)-len(p.Data)):], p.Data)
		}
		packets = append(packets, Packet{ID: pid, Payload: payload})
	}
	outputs, err := block.ScanPackets(packets)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range packets {
		var got []ac.Match
		for _, o := range outputs {
			if o.PacketID == p.ID {
				got = append(got, ac.Match{PatternID: o.PatternID, End: o.End})
			}
		}
		want := oracle.FindAll(p.Payload)
		if !ac.MatchesEqual(got, want) {
			t.Fatalf("packet %d: block found %d matches, oracle %d", p.ID, len(got), len(want))
		}
	}
}

func TestBlockThroughputUtilization(t *testing.T) {
	// With ≥6 equal packets, all engines stay busy: utilization ≈ 1.
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 100, Seed: 68})
	img := mustPack(t, set, core.Options{})
	block := NewBlock(img)
	var packets []Packet
	for pid := 0; pid < 12; pid++ {
		payload := make([]byte, 1000)
		for i := range payload {
			payload[i] = byte(pid + i)
		}
		packets = append(packets, Packet{ID: pid, Payload: payload})
	}
	if _, err := block.ScanPackets(packets); err != nil {
		t.Fatal(err)
	}
	if u := block.Stats.PortUtilization(); u < 0.95 {
		t.Fatalf("port utilization %.3f, want >= 0.95", u)
	}
	if block.Stats.BytesScanned != 12000 {
		t.Fatalf("scanned %d bytes, want 12000", block.Stats.BytesScanned)
	}
}

func TestBlockSinglePacketUsesOneEngine(t *testing.T) {
	// One packet can only keep one engine busy: a block needs 6 packets to
	// reach full throughput ("A string matching block needs 6 packets to
	// keep its engines busy").
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 100, Seed: 69})
	img := mustPack(t, set, core.Options{})
	block := NewBlock(img)
	payload := make([]byte, 3000)
	if _, err := block.ScanPackets([]Packet{{ID: 0, Payload: payload}}); err != nil {
		t.Fatal(err)
	}
	u := block.Stats.PortUtilization()
	if u > 0.2 {
		t.Fatalf("single-packet utilization %.3f, want ≈ 1/6", u)
	}
}

func TestBlockRejectsEmptyPayload(t *testing.T) {
	img := mustPack(t, toySet(), core.Options{})
	if _, err := NewBlock(img).ScanPackets([]Packet{{ID: 0}}); err == nil {
		t.Fatal("empty payload accepted")
	}
}

// --- accelerator ---

func TestAcceleratorSingleGroupReplication(t *testing.T) {
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 400, Seed: 70})
	g, err := core.BuildGrouped(set, 1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAccelerator(device.Stratix3, g)
	if err != nil {
		t.Fatal(err)
	}
	if a.Sets != 6 || a.Groups != 1 || len(a.Blocks) != 6 {
		t.Fatalf("sets=%d groups=%d blocks=%d, want 6/1/6", a.Sets, a.Groups, len(a.Blocks))
	}
	st := a.Stats()
	if st.ThroughputBps < 44e9 {
		t.Fatalf("throughput %.1f Gbps, want 44.2", st.ThroughputBps/1e9)
	}
}

func TestAcceleratorGroupedScanEqualsOracle(t *testing.T) {
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 900, Seed: 71})
	g, err := core.BuildGrouped(set, 3, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAccelerator(device.Stratix3, g)
	if err != nil {
		t.Fatal(err)
	}
	if a.Sets != 2 {
		t.Fatalf("sets = %d, want 2", a.Sets)
	}
	oracle := ac.NewOracle(set)
	src := rng.New(102)
	var packets []Packet
	for pid := 0; pid < 8; pid++ {
		payload := make([]byte, 700)
		for i := range payload {
			payload[i] = src.Byte()
		}
		for k := 0; k < 4; k++ {
			p := set.Patterns[src.Intn(set.Len())]
			copy(payload[src.Intn(len(payload)-len(p.Data)):], p.Data)
		}
		packets = append(packets, Packet{ID: pid, Payload: payload})
	}
	outputs, err := a.ScanPackets(packets)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range packets {
		var got []ac.Match
		for _, o := range outputs {
			if o.PacketID == p.ID {
				got = append(got, ac.Match{PatternID: o.PatternID, End: o.End})
			}
		}
		want := oracle.FindAll(p.Payload)
		if !ac.MatchesEqual(got, want) {
			t.Fatalf("packet %d: accelerator %d matches, oracle %d", p.ID, len(got), len(want))
		}
	}
}

func TestAcceleratorRejectsTooManyGroups(t *testing.T) {
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 400, Seed: 72})
	g, err := core.BuildGrouped(set, 5, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAccelerator(device.Cyclone3, g); err == nil {
		t.Fatal("5 groups accepted on a 4-block device")
	}
}

// Property: the full hardware pipeline (pack + engine) agrees with the
// oracle on random instances.
func TestQuickHardwareEquivalence(t *testing.T) {
	f := func(seed int64, nData uint16) bool {
		src := rng.New(seed)
		set := &ruleset.Set{}
		seen := map[string]bool{}
		for len(set.Patterns) < 8 {
			l := 1 + src.Intn(6)
			d := make([]byte, l)
			for i := range d {
				d[i] = byte('a' + src.Intn(3))
			}
			if seen[string(d)] {
				continue
			}
			seen[string(d)] = true
			set.Patterns = append(set.Patterns, ruleset.Pattern{ID: len(set.Patterns), Data: d})
		}
		m, err := core.Build(set, core.Options{})
		if err != nil {
			return false
		}
		img, err := Pack(m)
		if err != nil {
			return false
		}
		data := make([]byte, 1+int(nData)%250)
		for i := range data {
			data[i] = byte('a' + src.Intn(3))
		}
		block := NewBlock(img)
		outputs, err := block.ScanPackets([]Packet{{ID: 0, Payload: data}})
		if err != nil {
			return false
		}
		var got []ac.Match
		for _, o := range outputs {
			got = append(got, ac.Match{PatternID: o.PatternID, End: o.End})
		}
		return ac.MatchesEqual(got, ac.NewOracle(set).FindAll(data))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
