package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/ruleset"
)

func TestWriteDotToyExample(t *testing.T) {
	m := mustBuild(t, toySet(), Options{})
	var buf bytes.Buffer
	if err := m.WriteDot(&buf, mustTrie(t, toySet()), DotOptions{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "digraph machine {") || !strings.HasSuffix(strings.TrimSpace(out), "}") {
		t.Fatal("not a digraph")
	}
	// 10 states → 10 node declarations.
	if got := strings.Count(out, "label=\"start"); got != 1 {
		t.Fatalf("start nodes = %d", got)
	}
	// Match states (he, she, his, hers) are double circles.
	if got := strings.Count(out, "doublecircle"); got != 4 {
		t.Fatalf("doublecircle count = %d, want 4", got)
	}
	// Exactly one stored pointer survives (her -s-> hers): one solid edge
	// with label "s" beyond the dotted skeleton.
	solid := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "->") && !strings.Contains(line, "dotted") &&
			!strings.Contains(line, "dashed") && !strings.Contains(line, "lut") {
			solid++
		}
	}
	if solid != 1 {
		t.Fatalf("solid stored-pointer edges = %d, want 1", solid)
	}
	// The trie skeleton is drawn dotted: 9 goto edges, 8 of them compressed.
	if got := strings.Count(out, "style=dotted"); got != 8 {
		t.Fatalf("dotted skeleton edges = %d, want 8", got)
	}
}

func TestWriteDotWithDefaults(t *testing.T) {
	m := mustBuild(t, toySet(), Options{})
	var buf bytes.Buffer
	if err := m.WriteDot(&buf, mustTrie(t, toySet()), DotOptions{ShowDefaults: true}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "lut [shape=box") {
		t.Fatal("lookup table node missing")
	}
	// d1: h, s; d2: e/h/i rows; d3: e/s/r rows.
	if got := strings.Count(out, "label=\"d1"); got != 2 {
		t.Errorf("d1 edges = %d, want 2", got)
	}
	if got := strings.Count(out, "label=\"d2"); got != 3 {
		t.Errorf("d2 edges = %d, want 3", got)
	}
	if got := strings.Count(out, "label=\"d3"); got != 3 {
		t.Errorf("d3 edges = %d, want 3", got)
	}
}

func TestWriteDotSizeGuard(t *testing.T) {
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 300, Seed: 86})
	m := mustBuild(t, set, Options{})
	if err := m.WriteDot(&bytes.Buffer{}, mustTrie(t, set), DotOptions{}); err == nil {
		t.Fatal("oversized machine rendered without MaxStates override")
	}
	if err := m.WriteDot(&bytes.Buffer{}, mustTrie(t, set), DotOptions{MaxStates: 1 << 20}); err != nil {
		t.Fatalf("override failed: %v", err)
	}
}

func TestPrintableChar(t *testing.T) {
	cases := map[byte]string{
		'a':  "a",
		'/':  "/",
		0x90: "x90",
		0x00: "x00",
		'"':  "x22",
		'\\': "x5C",
		' ':  "x20",
	}
	for c, want := range cases {
		if got := printableChar(c); got != want {
			t.Errorf("printableChar(%#x) = %q, want %q", c, got, want)
		}
	}
}
