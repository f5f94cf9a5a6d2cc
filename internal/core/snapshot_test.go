package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash/crc32"
	"reflect"
	"slices"
	"testing"

	"repro/internal/ac"
	"repro/internal/rng"
	"repro/internal/ruleset"
)

// snapshotOf saves m, a machine for set, with a trie built from set for the
// occasion: the machine has none to give.
func snapshotOf(t *testing.T, m *Machine, set *ruleset.Set) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf, mustTrie(t, set)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSnapshotRoundTrip(t *testing.T) {
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 300, Seed: 81})
	orig := mustBuild(t, set, Options{})
	data := snapshotOf(t, orig, set)
	loaded, err := Load(data)
	if err != nil {
		t.Fatal(err)
	}

	if loaded.Stats != orig.Stats {
		t.Fatalf("stats changed:\n%+v\n%+v", loaded.Stats, orig.Stats)
	}
	if loaded.Opts != orig.Opts.withDefaults() {
		t.Fatalf("opts changed: %+v vs %+v", loaded.Opts, orig.Opts)
	}
	if loaded.NumStates() != orig.NumStates() {
		t.Fatalf("state count changed")
	}
	// The loaded machine must still be structurally equivalent to the DFA,
	// and emit what its output chains say.
	if err := loaded.VerifyTransitions(mustTrie(t, set)); err != nil {
		t.Fatal(err)
	}
	if err := loaded.VerifyOutputs(mustTrie(t, set)); err != nil {
		t.Fatal(err)
	}
	// And produce identical matches.
	src := rng.New(5)
	for trial := 0; trial < 5; trial++ {
		payload := make([]byte, 800)
		for i := range payload {
			payload[i] = src.Byte()
		}
		p := set.Patterns[src.Intn(set.Len())]
		copy(payload[100:], p.Data)
		got := loaded.FindAll(payload)
		want := orig.FindAll(payload)
		if !ac.MatchesEqual(got, want) {
			t.Fatalf("trial %d: loaded machine found %d matches, original %d", trial, len(got), len(want))
		}
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 100, Seed: 82})
	m := mustBuild(t, set, Options{})
	a, b := snapshotOf(t, m, set), snapshotOf(t, m, set)
	if !bytes.Equal(a, b) {
		t.Fatal("snapshots of the same machine differ")
	}
}

// TestSnapshotBytesPinned holds the builder to the bytes the dense-sweep
// builder wrote for the benchmark's ruleset (GenerateSnortLike(634, 2010)),
// taken at the last commit that had it: node table, defaults, stored
// pointers and every BuildStats field, floats included, in one hash.
func TestSnapshotBytesPinned(t *testing.T) {
	const want = "0a4f62171c5376059c57b7300b3bd920854d010ed63be851cd40e290fee86caf"
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 634, Seed: 2010})
	got := fmt.Sprintf("%x", sha256.Sum256(snapshotOf(t, mustBuild(t, set, Options{}), set)))
	if got != want {
		t.Fatalf("snapshot of the 634-string machine hashes to %s, want %s", got, want)
	}
}

// TestSnapshotRoundTripByteIdentical: Save → Load → Save reproduces the
// blob byte for byte at the paper's ruleset sizes, and the loaded machine is
// the built one — same state memory, same match memory, same kernel tables,
// the last two derived from the trie Load rebuilt — so there is one live
// image whichever way a machine came to be.
func TestSnapshotRoundTripByteIdentical(t *testing.T) {
	for _, n := range []int{634, 1204, 2588, 6275} {
		set := ruleset.MustGenerate(ruleset.GenConfig{N: n, Seed: 2010})
		built := mustBuild(t, set, Options{})
		first := snapshotOf(t, built, set)
		loaded, err := Load(first)
		if err != nil {
			t.Fatalf("%d strings: %v", n, err)
		}
		if second := snapshotOf(t, loaded, set); !bytes.Equal(first, second) {
			t.Fatalf("%d strings: the snapshot of the loaded machine differs from the one it was loaded from (%d vs %d bytes)",
				n, len(second), len(first))
		}
		if !reflect.DeepEqual(loaded.out, built.out) {
			t.Fatalf("%d strings: loaded match memory differs from the built one", n)
		}
		if !slices.Equal(loaded.stored, built.stored) || !slices.Equal(loaded.storedOff, built.storedOff) {
			t.Fatalf("%d strings: loaded state memory differs from the built one", n)
		}
		if cap(loaded.stored) != len(loaded.stored) {
			t.Fatalf("%d strings: loaded arena has %d spare entries", n, cap(loaded.stored)-len(loaded.stored))
		}
		if !reflect.DeepEqual(loaded.prog, built.prog) {
			t.Fatalf("%d strings: loaded kernel differs from the built one", n)
		}
		if &loaded.prog.stored[0] != &loaded.stored[0] {
			t.Fatalf("%d strings: the loaded kernel reads a copy of the state memory", n)
		}
	}
}

func TestSnapshotPreservesAblationOptions(t *testing.T) {
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 80, Seed: 83})
	m := mustBuild(t, set, Options{D2PerChar: 2, MaxDepth: 2})
	loaded, err := Load(snapshotOf(t, m, set))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Opts.D2PerChar != 2 || loaded.Opts.MaxDepth != 2 {
		t.Fatalf("opts = %+v", loaded.Opts)
	}
	if err := loaded.VerifyTransitions(mustTrie(t, set)); err != nil {
		t.Fatal(err)
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 60, Seed: 84})
	m := mustBuild(t, set, Options{})
	data := snapshotOf(t, m, set)

	// Truncation.
	for _, cut := range []int{0, 1, 4, len(data) / 2, len(data) - 1} {
		if _, err := Load(data[:cut]); err == nil {
			t.Errorf("truncation to %d bytes accepted", cut)
		}
	}
	// Bit flips anywhere must fail the checksum (or a structural check).
	src := rng.New(1)
	for trial := 0; trial < 20; trial++ {
		corrupted := append([]byte(nil), data...)
		corrupted[src.Intn(len(corrupted))] ^= 1 << uint(src.Intn(8))
		if _, err := Load(corrupted); err == nil {
			t.Errorf("trial %d: corrupted snapshot accepted", trial)
		}
	}
}

func TestLoadRejectsBadMagicAndVersion(t *testing.T) {
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 20, Seed: 85})
	m := mustBuild(t, set, Options{})
	data := snapshotOf(t, m, set)

	bad := append([]byte(nil), data...)
	copy(bad, "XXXX")
	fixCRC(bad)
	if _, err := Load(bad); err == nil {
		t.Error("bad magic accepted")
	}

	bad = append([]byte(nil), data...)
	bad[4] = 99 // version
	fixCRC(bad)
	if _, err := Load(bad); err == nil {
		t.Error("future version accepted")
	}
}

// TestLoadRejectsPatternLengthsThatAreNotDepths: the trie keeps no length
// table — a pattern is as long as its output state is deep — so the
// snapshot's table is checked against the node table it sits beside: an
// entry out of ID order, a length that is not the depth, an output whose ID
// the table does not list are all refused, with the checksum made good so
// that it is the structure that refuses them.
func TestLoadRejectsPatternLengthsThatAreNotDepths(t *testing.T) {
	m, trie := mustBuild(t, toySet(), Options{}), mustTrie(t, toySet())
	data := snapshotOf(t, m, toySet())
	lens := 10 + 4 // header, state count
	firstOut := 0
	for s := range trie.Nodes {
		nd := &trie.Nodes[s]
		if firstOut == 0 && nd.NumOut > 0 {
			firstOut = lens + 21 + 5*int(nd.NumEdges)
		}
		lens += 21 + 5*int(nd.NumEdges) + 4*int(nd.NumOut)
	}
	lens += 4 // pattern count; then (ID, Len) pairs of int32
	for name, corrupt := range map[string]func(b []byte){
		"swapped entries": func(b []byte) {
			var first [8]byte
			copy(first[:], b[lens:])
			copy(b[lens:], b[lens+8:lens+16])
			copy(b[lens+8:], first[:])
		},
		"longer than deep": func(b []byte) { b[lens+4]++ },
		"unlisted output":  func(b []byte) { b[firstOut] = 77 },
	} {
		bad := bytes.Clone(data)
		corrupt(bad)
		fixCRC(bad)
		if _, err := Load(bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// fixCRC recomputes the trailing checksum so structural validation (not
// the CRC) is what must reject the blob.
func fixCRC(data []byte) {
	body := data[:len(data)-4]
	crc := crc32ChecksumIEEE(body)
	data[len(data)-4] = byte(crc)
	data[len(data)-3] = byte(crc >> 8)
	data[len(data)-2] = byte(crc >> 16)
	data[len(data)-1] = byte(crc >> 24)
}

// crc32ChecksumIEEE is a local alias so the test file reads clearly.
func crc32ChecksumIEEE(b []byte) uint32 {
	return crc32.ChecksumIEEE(b)
}
