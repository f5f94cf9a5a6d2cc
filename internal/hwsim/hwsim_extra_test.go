package hwsim

import (
	"testing"

	"repro/internal/ac"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/ruleset"
)

// wideMachine returns a machine with a state at each of wantCounts stored
// pointers, so that every state-type class appears at both ends of its
// range. Machines built with the full default scheme rarely need the
// 108/180/252/324-bit layouts; the same ruleset under depth-1 defaults only
// (Table II's "d1" row) keeps up to 13 pointers at a state and still packs.
func wideMachine(t *testing.T, wantCounts []int) *core.Machine {
	t.Helper()
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 100, Seed: 7})
	m, err := core.Build(set, core.Options{MaxDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	have := map[int]bool{}
	for s := int32(0); s < int32(m.NumStates()); s++ {
		have[len(m.StoredRow(s))] = true
	}
	for _, want := range wantCounts {
		if !have[want] {
			t.Fatalf("no state stores %d pointers", want)
		}
	}
	return m
}

func TestPackAllStateTypes(t *testing.T) {
	// Force stored counts hitting every class boundary: 2 (type 10-12),
	// 5 and 7 (type 13), 8 and 10 (type 14), 11 and 13 (type 15).
	m := wideMachine(t, []int{2, 4, 5, 7, 8, 10, 11, 13})
	img, err := Pack(m)
	if err != nil {
		t.Fatal(err)
	}
	var seen [16]bool
	for _, loc := range img.Loc {
		seen[loc.Type] = true
	}
	for _, class := range []StateType{13, 14, 15} {
		if !seen[class] {
			t.Errorf("state type %d never used", class)
		}
	}
	any3 := seen[10] || seen[11] || seen[12]
	if !any3 {
		t.Error("no 108-bit state type used")
	}
	// Bit-exact readback of every pointer.
	for s := int32(0); s < int32(len(img.Loc)); s++ {
		for i, tr := range m.StoredRow(s) {
			char, to, ok := img.readPtr(img.Loc[s], i)
			if !ok || char != tr.Char() || to != img.Loc[tr.To()] {
				t.Fatalf("state %d ptr %d decode mismatch", s, i)
			}
		}
	}
}

func TestPackDeterministic(t *testing.T) {
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 300, Seed: 96})
	m, err := core.Build(set, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Pack(m)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Pack(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Words) != len(b.Words) {
		t.Fatal("word counts differ across packs")
	}
	for i := range a.Words {
		if !a.Words[i].Equal(b.Words[i]) {
			t.Fatalf("word %d differs across packs", i)
		}
	}
	for c := 0; c < LUTRows; c++ {
		if !a.LUT[c].Packed.Equal(b.LUT[c].Packed) {
			t.Fatalf("LUT row %#x differs across packs", c)
		}
	}
}

func TestSchedulerBurst(t *testing.T) {
	// A payload that is wall-to-wall matches: every byte of "aaaa..." ends
	// patterns "a", "aa", "aaa" — the scheduler queue must absorb the burst
	// and still emit every match.
	set := &ruleset.Set{Patterns: []ruleset.Pattern{
		{ID: 0, Data: []byte("a")},
		{ID: 1, Data: []byte("aa")},
		{ID: 2, Data: []byte("aaa")},
	}}
	m, err := core.Build(set, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	img, err := Pack(m)
	if err != nil {
		t.Fatal(err)
	}
	block := NewBlock(img)
	n := 300
	payload := make([]byte, n)
	for i := range payload {
		payload[i] = 'a'
	}
	// Six all-match packets keep every engine producing one match event per
	// engine cycle: 2 events arrive per memory tick (one per port) while
	// the scheduler drains at most 1 — the buffer must absorb the excess.
	packets := make([]Packet, EnginesPerBlock)
	for i := range packets {
		packets[i] = Packet{ID: i, Payload: payload}
	}
	outputs, err := block.ScanPackets(packets)
	if err != nil {
		t.Fatal(err)
	}
	// Expected per packet: n of "a", n-1 of "aa", n-2 of "aaa".
	want := EnginesPerBlock * (n + (n - 1) + (n - 2))
	if len(outputs) != want {
		t.Fatalf("outputs = %d, want %d", len(outputs), want)
	}
	if block.Stats.MaxSchedQueue < 10 {
		t.Errorf("scheduler queue high-water %d; burst not exercised", block.Stats.MaxSchedQueue)
	}
	// Drain-bound run: the scheduler needs more memory ticks than the scan
	// itself (engines finish after 3n ticks; ~n·6 events × up to 2 words).
	if block.Stats.MemCycles <= int64(3*n) {
		t.Errorf("mem cycles %d suspiciously low for %d drain-bound matches", block.Stats.MemCycles, want)
	}
	// Oracle cross-check on one packet's share.
	var got []ac.Match
	for _, o := range outputs {
		if o.PacketID == 0 {
			got = append(got, ac.Match{PatternID: o.PatternID, End: o.End})
		}
	}
	if !ac.MatchesEqual(got, ac.NewOracle(set).FindAll(payload)) {
		t.Fatal("burst outputs incorrect")
	}
}

func TestAcceleratorCycloneTwoGroups(t *testing.T) {
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 700, Seed: 97})
	g, err := core.BuildGrouped(set, 2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAccelerator(device.Cyclone3, g)
	if err != nil {
		t.Fatal(err)
	}
	if a.Sets != 2 || len(a.Blocks) != 4 {
		t.Fatalf("sets=%d blocks=%d, want 2/4", a.Sets, len(a.Blocks))
	}
	st := a.Stats()
	if st.ThroughputBps < 7.4e9 || st.ThroughputBps > 7.5e9 {
		t.Fatalf("throughput %.2f Gbps, want 7.46 (Table II)", st.ThroughputBps/1e9)
	}
	// Packets must distribute over both sets.
	payloads := make([]Packet, 8)
	for i := range payloads {
		payloads[i] = Packet{ID: i, Payload: []byte("some payload data for set distribution")}
	}
	if _, err := a.ScanPackets(payloads); err != nil {
		t.Fatal(err)
	}
	bytesSet0 := a.Blocks[0].Stats.BytesScanned
	bytesSet1 := a.Blocks[2].Stats.BytesScanned // first block of set 1
	if bytesSet0 == 0 || bytesSet1 == 0 {
		t.Fatalf("a set idled: %d / %d bytes", bytesSet0, bytesSet1)
	}
}

func TestEngineHistoryAcrossManyPackets(t *testing.T) {
	// Repeatedly scanning packets through one engine with Reset in between
	// must behave identically to fresh engines: no state leaks.
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 100, Seed: 98})
	m, err := core.Build(set, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	img, err := Pack(m)
	if err != nil {
		t.Fatal(err)
	}
	shared := NewEngine(img)
	payloads := [][]byte{
		[]byte("first packet payload x"),
		set.Patterns[3].Data,
		[]byte{0x90, 0x00, 0xFF},
		set.Patterns[7].Data,
	}
	for _, p := range payloads {
		fresh := NewEngine(img)
		shared.Reset()
		for i, c := range p {
			a := shared.Step(c)
			b := fresh.Step(c)
			if a != b {
				t.Fatalf("byte %d of %q: shared %+v, fresh %+v", i, p, a, b)
			}
		}
	}
}

func TestEngineCorrectForAblationMachines(t *testing.T) {
	// A machine compressed with MaxDepth=1 still carries depth-2/3 defaults
	// in its lookup table, and the engine evaluates the full default rule.
	// That is safe: a deeper default can only fire when its target is a
	// suffix of the input, in which case the DFA transition could not have
	// been removed under the depth-1 rule — so the default is never
	// consulted. Verify empirically against the oracle.
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 150, Seed: 99})
	for depth := 1; depth <= 3; depth++ {
		m, err := core.Build(set, core.Options{MaxDepth: depth})
		if err != nil {
			t.Fatal(err)
		}
		img, err := Pack(m)
		if err != nil {
			t.Fatal(err)
		}
		block := NewBlock(img)
		payload := append([]byte("noise "), set.Patterns[11].Data...)
		payload = append(payload, []byte(" more ")...)
		payload = append(payload, set.Patterns[42].Data...)
		outputs, err := block.ScanPackets([]Packet{{ID: 0, Payload: payload}})
		if err != nil {
			t.Fatal(err)
		}
		var got []ac.Match
		for _, o := range outputs {
			got = append(got, ac.Match{PatternID: o.PatternID, End: o.End})
		}
		want := ac.NewOracle(set).FindAll(payload)
		if !ac.MatchesEqual(got, want) {
			t.Fatalf("MaxDepth=%d: hardware %d matches, oracle %d", depth, len(got), len(want))
		}
	}
}
