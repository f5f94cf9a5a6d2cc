package dpi

import (
	"bytes"
	"testing"
)

func webRules(t *testing.T) *Ruleset {
	t.Helper()
	r := NewRuleset()
	r.MustAdd("phf", []byte("/cgi-bin/phf"))
	r.MustAdd("nop-sled", []byte{0x90, 0x90, 0x90, 0x90})
	r.MustAdd("etc-passwd", []byte("/etc/passwd"))
	r.MustAdd("cmd-exe", []byte("cmd.exe"))
	return r
}

func TestAddAndLookup(t *testing.T) {
	r := webRules(t)
	if r.Len() != 4 {
		t.Fatalf("Len = %d", r.Len())
	}
	if r.Name(0) != "phf" {
		t.Fatalf("Name(0) = %q", r.Name(0))
	}
	if !bytes.Equal(r.Content(1), []byte{0x90, 0x90, 0x90, 0x90}) {
		t.Fatalf("Content(1) = %v", r.Content(1))
	}
	if r.Name(99) != "" || r.Content(99) != nil {
		t.Fatal("phantom pattern 99")
	}
}

func TestAddRejectsBadPatterns(t *testing.T) {
	r := NewRuleset()
	if _, err := r.Add("empty", nil); err == nil {
		t.Error("empty content accepted")
	}
	r.MustAdd("a", []byte("abc"))
	if _, err := r.Add("dup", []byte("abc")); err == nil {
		t.Error("duplicate content accepted")
	}
}

func TestAddSnortContent(t *testing.T) {
	r := NewRuleset()
	id, err := r.AddSnortContent("shell", "|90 90|/bin/sh")
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{0x90, 0x90, '/', 'b', 'i', 'n', '/', 's', 'h'}
	if !bytes.Equal(r.Content(id), want) {
		t.Fatalf("content = %v", r.Content(id))
	}
	if _, err := r.AddSnortContent("bad", "|zz|"); err == nil {
		t.Error("bad hex accepted")
	}
}

func TestCompileAndFindAll(t *testing.T) {
	m, err := Compile(webRules(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Backend() != BackendPrefiltered {
		t.Fatalf("default Config resolved backend %q, want %q", m.Backend(), BackendPrefiltered)
	}
	payload := []byte("GET /cgi-bin/phf?Qalias=x HTTP/1.0 cmd.exe")
	got := m.FindAll(payload)
	if len(got) != 2 {
		t.Fatalf("matches = %v", got)
	}
	first := got[0]
	if first.PatternID != 0 || first.Start != 4 || first.End != 16 {
		t.Fatalf("first match = %+v, want phf at [4,16)", first)
	}
	if first.PacketID != -1 {
		t.Fatalf("PacketID = %d, want -1 for single scans", first.PacketID)
	}
	if got[1].PatternID != 3 {
		t.Fatalf("second match = %+v, want cmd-exe", got[1])
	}
}

func TestScanStreamsMatches(t *testing.T) {
	m, err := Compile(webRules(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	var ids []int
	m.Scan([]byte("xx/etc/passwd"), func(mt Match) { ids = append(ids, mt.PatternID) })
	if len(ids) != 1 || ids[0] != 2 {
		t.Fatalf("streamed ids = %v", ids)
	}
}

func TestCompileEmptyFails(t *testing.T) {
	if _, err := Compile(NewRuleset(), Config{}); err == nil {
		t.Fatal("empty ruleset compiled")
	}
}

func TestCompileBadConfigFails(t *testing.T) {
	if _, err := Compile(webRules(t), Config{MaxDefaultDepth: 5}); err == nil {
		t.Fatal("MaxDefaultDepth=5 accepted")
	}
}

func TestStatsShape(t *testing.T) {
	rs, err := GenerateSnortLike(500, 7)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Compile(rs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Reduction < 0.9 {
		t.Fatalf("reduction %.3f < 0.9", st.Reduction)
	}
	if st.D1Defaults == 0 || st.D2Defaults == 0 || st.D3Defaults == 0 {
		t.Fatalf("defaults missing: %+v", st)
	}
	if !(st.OriginalAvg > st.AvgAfterD1 && st.AvgAfterD1 > st.AvgAfterD12 &&
		st.AvgAfterD12 >= st.AvgAfterD123) {
		t.Fatalf("averages not decreasing: %+v", st)
	}
}

func TestVerify(t *testing.T) {
	m, err := Compile(webRules(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{
		[]byte("nothing here"),
		[]byte("/cgi-bin/phf"),
		{0x90, 0x90, 0x90, 0x90, 0x90},
	}
	if err := m.Verify(payloads); err != nil {
		t.Fatal(err)
	}
	// The oracle is rebuilt from the ruleset, so a ruleset grown since
	// Compile is refused as not what was compiled rather than walked.
	m.Rules().MustAdd("late", []byte("added after Compile"))
	if err := m.Verify(nil); err == nil {
		t.Fatal("Verify proved a matcher against rules it was not compiled from")
	}
}

func TestRulesetWriteParseRoundTrip(t *testing.T) {
	r := webRules(t)
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	r2, err := ParseRuleset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Len() != r.Len() {
		t.Fatalf("round trip lost patterns: %d != %d", r2.Len(), r.Len())
	}
	for id := 0; id < r.Len(); id++ {
		if !bytes.Equal(r.Content(id), r2.Content(id)) {
			t.Fatalf("pattern %d content changed", id)
		}
	}
}

func TestReducePublicAPI(t *testing.T) {
	rs, err := GenerateSnortLike(400, 21)
	if err != nil {
		t.Fatal(err)
	}
	small, err := rs.Reduce(100, 3)
	if err != nil {
		t.Fatal(err)
	}
	if small.Len() != 100 {
		t.Fatalf("reduced to %d", small.Len())
	}
}

func TestAddAfterReduceDoesNotReuseIDs(t *testing.T) {
	// Reduce preserves sparse original IDs; a subsequent Add must mint a
	// fresh ID, not collide with a survivor whose ID equals Len().
	rs, err := GenerateSnortLike(400, 21)
	if err != nil {
		t.Fatal(err)
	}
	small, err := rs.Reduce(100, 3)
	if err != nil {
		t.Fatal(err)
	}
	id := small.MustAdd("fresh", []byte("a brand new pattern"))
	for prior := 0; prior < id; prior++ {
		if small.Name(prior) == "fresh" {
			t.Fatalf("Add reused surviving ID %d", prior)
		}
	}
	if !bytes.Equal(small.Content(id), []byte("a brand new pattern")) {
		t.Fatalf("Content(%d) = %q", id, small.Content(id))
	}
	m, err := Compile(small, Config{})
	if err != nil {
		t.Fatalf("compile after reduce+add: %v", err)
	}
	got := m.FindAll([]byte("xx a brand new pattern yy"))
	found := false
	for _, mt := range got {
		if mt.PatternID == id {
			if mt.Start != 3 || mt.End != 3+len("a brand new pattern") {
				t.Fatalf("match offsets %+v", mt)
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("added pattern not matched: %v", got)
	}
}
