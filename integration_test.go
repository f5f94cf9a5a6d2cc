package dpi

// Cross-layer integration tests: the software pipeline from synthetic
// ruleset generation through compilation to scan-out, cross-checked
// against the reference baselines at every step. The hardware model's leg —
// block packing and accelerator scan-out against this matcher — is package
// fpga's TestAcceleratorAgreesWithFindAll.

import (
	"bytes"
	"testing"

	"repro/internal/ac"
	"repro/internal/ruleset"
	"repro/internal/traffic"
	"repro/internal/tuck"
)

// internalSet rebuilds the internal set view of a public ruleset.
func internalSet(t *testing.T, r *Ruleset) *ruleset.Set {
	t.Helper()
	s := &ruleset.Set{}
	for id := 0; ; id++ {
		c := r.Content(id)
		if c == nil {
			break
		}
		s.Patterns = append(s.Patterns, ruleset.Pattern{ID: id, Data: c, Name: r.Name(id)})
	}
	if s.Len() == 0 {
		t.Fatal("empty ruleset view")
	}
	return s
}

func TestPipelineEndToEnd(t *testing.T) {
	// Generate → compile → scan, and agree with (a) the goto/fail
	// reference, (b) the bitmap baseline on identical traffic.
	rules, err := GenerateSnortLike(1204, 2010)
	if err != nil {
		t.Fatal(err)
	}
	matcher, err := Compile(rules, Config{})
	if err != nil {
		t.Fatal(err)
	}
	set := internalSet(t, rules)
	pkts, err := traffic.Generate(set, traffic.Config{
		Packets:       16,
		Bytes:         1200,
		Seed:          99,
		AttackDensity: 1.5,
		Profile:       traffic.Textual,
	})
	if err != nil {
		t.Fatal(err)
	}
	trie, err := ac.New(set)
	if err != nil {
		t.Fatal(err)
	}
	failRef := ac.NewFailMatcher(trie)
	bitmapRef, err := tuck.BuildBitmap(set)
	if err != nil {
		t.Fatal(err)
	}

	for pid, p := range pkts {
		payload := p.Payload
		var sw []ac.Match
		for _, m := range matcher.FindAll(payload) {
			sw = append(sw, ac.Match{PatternID: int32(m.PatternID), End: m.End})
		}
		gf := failRef.FindAll(payload)
		bm := bitmapRef.FindAll(payload)

		if !ac.MatchesEqual(sw, gf) {
			t.Fatalf("packet %d: software %d matches, goto/fail %d", pid, len(sw), len(gf))
		}
		if !ac.MatchesEqual(gf, bm) {
			t.Fatalf("packet %d: goto/fail %d matches, bitmap %d", pid, len(gf), len(bm))
		}
	}
}

func TestPipelineMatchOffsetsExact(t *testing.T) {
	// Every reported [Start, End) must contain exactly the pattern bytes.
	rules, err := GenerateSnortLike(400, 77)
	if err != nil {
		t.Fatal(err)
	}
	matcher, err := Compile(rules, Config{})
	if err != nil {
		t.Fatal(err)
	}
	set := internalSet(t, rules)
	pkts, err := traffic.Generate(set, traffic.Config{
		Packets: 10, Bytes: 900, Seed: 7, AttackDensity: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, p := range pkts {
		for _, m := range matcher.FindAll(p.Payload) {
			want := rules.Content(m.PatternID)
			if !bytes.Equal(p.Payload[m.Start:m.End], want) {
				t.Fatalf("packet %d: match %+v does not span its pattern", p.ID, m)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no matches produced; workload broken")
	}
}

func TestPipelineDeterministicAcrossRuns(t *testing.T) {
	build := func() ([]Match, CompressionStats) {
		rules, err := GenerateSnortLike(500, 4242)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Compile(rules, Config{})
		if err != nil {
			t.Fatal(err)
		}
		payload := append([]byte("xx "), rules.Content(123)...)
		return m.FindAll(payload), m.Stats()
	}
	m1, s1 := build()
	m2, s2 := build()
	if s1 != s2 {
		t.Fatalf("stats differ across identical builds:\n%+v\n%+v", s1, s2)
	}
	if len(m1) != len(m2) {
		t.Fatalf("matches differ: %d vs %d", len(m1), len(m2))
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("match %d differs: %+v vs %+v", i, m1[i], m2[i])
		}
	}
}
