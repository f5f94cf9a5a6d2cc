package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/hwsim"
	"repro/internal/ruleset"
)

func writeRules(t *testing.T, lines string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "rules.txt")
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunEmitsThreeMIFsPerGroup(t *testing.T) {
	rules := writeRules(t, "a: /cgi-bin/phf\nb: |90 90 90 90|\nc: cmd.exe\n")
	out := t.TempDir()
	if err := run(rules, "cyclone3", out, 0); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"group0.state.mif", "group0.match.mif", "group0.lut.mif"} {
		data, err := os.ReadFile(filepath.Join(out, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := hwsim.ParseMIF(strings.NewReader(string(data))); err != nil {
			t.Fatalf("%s does not parse back: %v", name, err)
		}
	}
	// A 3-pattern set needs exactly one group: no group1 files.
	if _, err := os.Stat(filepath.Join(out, "group1.state.mif")); !os.IsNotExist(err) {
		t.Fatal("unexpected group1 files")
	}
}

func TestRunExplicitGroups(t *testing.T) {
	rules := writeRules(t, "a: abcdef\nb: ghijkl\nc: mnopqr\nd: stuvwx\n")
	out := t.TempDir()
	if err := run(rules, "stratix3", out, 2); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"group0.state.mif", "group1.state.mif"} {
		if _, err := os.Stat(filepath.Join(out, name)); err != nil {
			t.Fatalf("%s missing: %v", name, err)
		}
	}
}

// TestRunAutoSplits: -groups 0 takes the fewest groups whose images fit the
// device — two Cyclone III blocks for 1 603 strings — and forcing one fails.
func TestRunAutoSplits(t *testing.T) {
	var file strings.Builder
	if err := ruleset.WriteFile(&file, ruleset.MustGenerate(ruleset.GenConfig{N: 1603, Seed: 2010})); err != nil {
		t.Fatal(err)
	}
	rules := writeRules(t, file.String())
	out := t.TempDir()
	if err := run(rules, "cyclone3", out, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(out, "group1.match.mif")); err != nil {
		t.Fatalf("no second group: %v", err)
	}
	if _, err := os.Stat(filepath.Join(out, "group2.match.mif")); !os.IsNotExist(err) {
		t.Fatal("split further than the fit needs")
	}
	if err := run(rules, "cyclone3", t.TempDir(), 1); err == nil {
		t.Fatal("one Cyclone III block held 1 603 strings")
	}
}

func TestRunErrors(t *testing.T) {
	rules := writeRules(t, "a: abc\n")
	if err := run(rules, "virtex7", t.TempDir(), 0); err == nil {
		t.Error("unknown device accepted")
	}
	if err := run("/nonexistent", "cyclone3", t.TempDir(), 0); err == nil {
		t.Error("missing rules file accepted")
	}
}
