package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	dpi "repro"
)

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunScansFiles(t *testing.T) {
	dir := t.TempDir()
	rules := writeFile(t, dir, "rules.txt",
		"web-phf: /cgi-bin/phf\nsled: |90 90 90 90|\n")
	payload := writeFile(t, dir, "payload.bin",
		"GET /cgi-bin/phf HTTP/1.0\x90\x90\x90\x90\x90")

	var sb strings.Builder
	if err := run(&sb, rules, []string{payload}, false, "", 0); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "web-phf") {
		t.Errorf("web-phf match missing:\n%s", out)
	}
	// The 5-byte sled contains two overlapping 4-byte matches.
	if got := strings.Count(out, "sled"); got != 2 {
		t.Errorf("sled matches = %d, want 2:\n%s", got, out)
	}
	if !strings.Contains(out, "3 matches in 1 file(s)") {
		t.Errorf("summary missing:\n%s", out)
	}
}

func TestRunStatsOnlyWithDevice(t *testing.T) {
	dir := t.TempDir()
	rules := writeFile(t, dir, "rules.txt", "a: abcdef\nb: ghijkl\n")
	var sb strings.Builder
	if err := run(&sb, rules, nil, true, "stratix3", 0); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "compiled 2 patterns") {
		t.Errorf("stats line missing:\n%s", out)
	}
	if !strings.Contains(out, "Stratix III") || !strings.Contains(out, "44.2 Gbps") {
		t.Errorf("device report missing:\n%s", out)
	}
}

// TestRunDeviceAutoGroups: -groups 0 means what its help says — the fewest
// groups that fit the device. 1 603 strings outgrow one Cyclone III block, so
// the report splits them over two; -groups 1 still forces one, and fails.
func TestRunDeviceAutoGroups(t *testing.T) {
	rs, err := dpi.GenerateSnortLike(1603, 2010)
	if err != nil {
		t.Fatal(err)
	}
	var file strings.Builder
	if err := rs.Write(&file); err != nil {
		t.Fatal(err)
	}
	rules := writeFile(t, t.TempDir(), "rules.txt", file.String())
	var sb strings.Builder
	if err := run(&sb, rules, nil, true, "cyclone3", 0); err != nil {
		t.Fatal(err)
	}
	if out := sb.String(); !strings.Contains(out, "Cyclone III: 4 blocks, 2 groups, 2 concurrent packet sets") {
		t.Errorf("auto split missing:\n%s", out)
	}
	if err := run(&sb, rules, nil, true, "cyclone3", 1); err == nil {
		t.Error("-groups 1 fit 1 603 strings into one Cyclone III block")
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	rules := writeFile(t, dir, "rules.txt", "a: abc\n")
	var sb strings.Builder
	if err := run(&sb, filepath.Join(dir, "nope.txt"), nil, true, "", 0); err == nil {
		t.Error("missing rules file accepted")
	}
	if err := run(&sb, rules, nil, true, "virtex", 0); err == nil {
		t.Error("unknown device accepted")
	}
	if err := run(&sb, rules, nil, false, "", 0); err == nil {
		t.Error("no input files accepted without -stats")
	}
	bad := writeFile(t, dir, "bad.txt", "x: |zz|\n")
	if err := run(&sb, bad, nil, true, "", 0); err == nil {
		t.Error("malformed ruleset accepted")
	}
}
