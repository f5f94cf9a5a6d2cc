// Package traffic synthesizes packet workloads for the scanner: clean
// background traffic, attack-laden streams with known ground truth, and the
// adversarial worst-case streams the paper's throughput guarantee is about
// ("This prevents attacks being constructed which flood a system with
// packets it performs poorly on", §I) — inputs that force fail-pointer
// matchers to their worst case while the paper's architecture still scans
// one byte per cycle.
package traffic

import (
	"fmt"

	"repro/internal/ac"
	"repro/internal/rng"
	"repro/internal/ruleset"
)

// Packet is one payload with provenance metadata.
type Packet struct {
	ID      int
	Payload []byte
	// Planted records ground truth: pattern IDs copied into the payload by
	// the generator (matches may exceed this — random bytes can collide
	// with short patterns).
	Planted []int32
}

// Config controls workload synthesis.
type Config struct {
	Packets int
	// Bytes is the payload size of each packet; typical MTU-ish values
	// (500-1500) exercise the per-packet reset paths.
	Bytes int
	Seed  int64
	// AttackDensity is the expected number of planted patterns per packet
	// (0 = clean traffic).
	AttackDensity float64
	// Profile shapes the background bytes.
	Profile Profile
}

// Profile selects the background byte distribution.
type Profile int

const (
	// Uniform is uniformly random bytes — maximum-entropy background.
	Uniform Profile = iota
	// Textual mimics ASCII-heavy application traffic (HTTP, SMTP).
	Textual
	// Zeroish mimics padding-heavy binary protocols.
	Zeroish
)

// Generate produces a deterministic workload over the given pattern set.
func Generate(set *ruleset.Set, cfg Config) ([]Packet, error) {
	if cfg.Packets <= 0 || cfg.Bytes <= 0 {
		return nil, fmt.Errorf("traffic: need positive Packets and Bytes, got %d/%d", cfg.Packets, cfg.Bytes)
	}
	src := rng.New(cfg.Seed)
	packets := make([]Packet, cfg.Packets)
	for i := range packets {
		payload := make([]byte, cfg.Bytes)
		fillBackground(src, payload, cfg.Profile)
		var planted []int32
		if cfg.AttackDensity > 0 && set != nil && set.Len() > 0 {
			n := poissonish(src, cfg.AttackDensity)
			for k := 0; k < n; k++ {
				p := set.Patterns[src.Intn(set.Len())]
				if len(p.Data) >= cfg.Bytes {
					continue
				}
				off := src.Intn(cfg.Bytes - len(p.Data))
				copy(payload[off:], p.Data)
				planted = append(planted, int32(p.ID))
			}
		}
		packets[i] = Packet{ID: i, Payload: payload, Planted: planted}
	}
	return packets, nil
}

func fillBackground(src *rng.Source, payload []byte, profile Profile) {
	switch profile {
	case Textual:
		for i := range payload {
			switch src.WeightedPick([]float64{60, 12, 10, 8, 10}) {
			case 0:
				payload[i] = byte('a' + src.Intn(26))
			case 1:
				payload[i] = byte('A' + src.Intn(26))
			case 2:
				payload[i] = ' '
			case 3:
				payload[i] = byte('0' + src.Intn(10))
			default:
				puncts := []byte("./:?=&-_\r\n")
				payload[i] = puncts[src.Intn(len(puncts))]
			}
		}
	case Zeroish:
		for i := range payload {
			if src.Bool(0.6) {
				payload[i] = 0
			} else {
				payload[i] = src.Byte()
			}
		}
	default:
		for i := range payload {
			payload[i] = src.Byte()
		}
	}
}

// poissonish draws a small non-negative count with the given mean using a
// simple inversion that is adequate for means below ~10.
func poissonish(src *rng.Source, mean float64) int {
	n := 0
	budget := mean
	for budget > 0 {
		if budget >= 1 || src.Bool(budget) {
			if src.Bool(1 - 1/(1+mean)) {
				n++
			}
		}
		budget--
	}
	if n == 0 && src.Bool(mean/(1+mean)) {
		n = 1
	}
	return n
}

// Adversarial builds a payload that maximizes goto/fail automaton stress.
// It analyses the ruleset's Aho-Corasick failure structure, finds the
// states whose fail chains are deepest relative to their trie depth, and
// emits their path strings each followed by a "breaker" byte that has no
// goto transition anywhere on the fail chain — forcing the matcher to walk
// the entire chain for a single input character. The paper's architecture
// scans any such stream at exactly one byte per cycle; a fail-pointer
// design does not ("This prevents attacks being constructed which flood a
// system with packets it performs poorly on").
func Adversarial(set *ruleset.Set, size int, seed int64) ([]byte, error) {
	if set.Len() == 0 {
		return nil, fmt.Errorf("traffic: empty pattern set")
	}
	if size <= 0 {
		return nil, fmt.Errorf("traffic: need positive size, got %d", size)
	}
	trie, err := ac.New(set)
	if err != nil {
		return nil, err
	}
	// failDepth[s] = number of fail transitions from s down to the root. A
	// fail target is shallower, so numbered lower, so already counted.
	n := trie.NumStates()
	failDepth := make([]int, n)
	for s := int32(1); s < int32(n); s++ {
		failDepth[s] = failDepth[trie.Nodes[s].Fail] + 1
	}
	// Score states by amortized steps per byte of their attack unit:
	// (depth + 1 goto steps + failDepth fail steps) / (depth + 1 bytes).
	type cand struct {
		state int32
		score float64
	}
	var best []cand
	for s := int32(1); s < int32(n); s++ {
		depth := int(trie.Nodes[s].Depth)
		score := float64(depth+1+failDepth[s]) / float64(depth+1)
		best = append(best, cand{state: s, score: score})
	}
	// Partial selection of the top 8 scorers.
	for i := 0; i < len(best) && i < 8; i++ {
		max := i
		for j := i + 1; j < len(best); j++ {
			if best[j].score > best[max].score {
				max = j
			}
		}
		best[i], best[max] = best[max], best[i]
	}
	if len(best) > 8 {
		best = best[:8]
	}

	// Build each candidate's attack unit: path string + breaker byte.
	units := make([][]byte, 0, len(best))
	for _, c := range best {
		var path []byte
		for cur := c.state; cur != ac.Root; cur = trie.Nodes[cur].Parent {
			path = append(path, trie.Nodes[cur].Char)
		}
		for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
			path[i], path[j] = path[j], path[i]
		}
		unit := append(path, breakerByte(trie, c.state))
		units = append(units, unit)
	}

	src := rng.New(seed)
	payload := make([]byte, 0, size)
	for len(payload) < size {
		u := units[src.Intn(len(units))]
		take := len(u)
		if rem := size - len(payload); take > rem {
			take = rem
		}
		payload = append(payload, u[:take]...)
	}
	return payload, nil
}

// breakerByte picks an input byte with no goto transition at any state on
// s's fail chain, so a goto/fail matcher walks the whole chain. Falls back
// to 0xFE if every byte is covered somewhere on the chain.
func breakerByte(trie *ac.Trie, s int32) byte {
	var covered [256]bool
	for cur := s; ; cur = trie.Nodes[cur].Fail {
		for v, end := trie.Children(cur); v < end; v++ {
			covered[trie.Nodes[v].Char] = true
		}
		if cur == ac.Root {
			break
		}
	}
	for c := 0; c < 256; c++ {
		if !covered[c] {
			return byte(c)
		}
	}
	return 0xFE
}
