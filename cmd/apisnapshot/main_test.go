package main

import (
	"os"
	"strings"
	"testing"
)

// TestGoldenSnapshotCurrent is the in-tree half of the API gate CI runs:
// each committed golden file must equal the surface regenerated from
// source, so an exported-API change always lands together with its
// reviewed api/*.txt diff.
func TestGoldenSnapshotCurrent(t *testing.T) {
	for dir, golden := range map[string]string{".": "api/dpi.txt", "fpga": "api/fpga.txt"} {
		snap, err := snapshot("../../" + dir)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile("../../" + golden)
		if err != nil {
			t.Fatal(err)
		}
		if d := diff(string(want), snap); d != "" {
			t.Fatalf("exported API drifted from %s (regenerate with `go run ./cmd/apisnapshot -dir %s -write %s`):\n%s", golden, dir, golden, d)
		}
	}
}

// TestSnapshotShape pins the listing's load-bearing properties: sorted,
// deterministic, exported-only, and covering every declaration kind the
// v1 surface uses.
func TestSnapshotShape(t *testing.T) {
	snap, err := snapshot("../..")
	if err != nil {
		t.Fatal(err)
	}
	again, err := snapshot("../..")
	if err != nil {
		t.Fatal(err)
	}
	if snap != again {
		t.Fatal("snapshot is not deterministic across runs")
	}
	lines := strings.Split(strings.TrimRight(snap, "\n"), "\n")
	if !strings.HasPrefix(lines[0], "#") {
		t.Fatalf("missing header: %q", lines[0])
	}
	body := lines[1:]
	for i := 1; i < len(body); i++ {
		if body[i] < body[i-1] {
			t.Fatalf("lines not sorted: %q before %q", body[i-1], body[i])
		}
	}
	for _, want := range []string{
		"func Compile(", "func NewGateway(",
		"method (*Gateway) SwapRules(m *Matcher) error",
		"method (*Matcher) Generation() uint64",
		"var ErrBadConfig", "var ErrClosed", "var ErrStaleGeneration",
		"type GenerationInfo struct", "field GatewayStats.GenerationsRetired uint64",
	} {
		found := false
		for _, l := range body {
			if strings.HasPrefix(l, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("snapshot is missing %q", want)
		}
	}
	for _, l := range body {
		if strings.Contains(l, " coreOptions") || strings.HasPrefix(l, "func new") {
			t.Errorf("unexported symbol leaked into the snapshot: %q", l)
		}
	}
}

func TestDiff(t *testing.T) {
	d := diff("a\nb\nc\n", "a\nc\nd\n")
	if d != "-b\n+d\n" {
		t.Fatalf("diff = %q", d)
	}
	if d := diff("a\n", "a\n"); d != "" {
		t.Fatalf("identical inputs diff = %q", d)
	}
}
