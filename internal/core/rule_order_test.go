package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/ruleset"
)

// reordered returns set with its patterns listed in another order, each
// keeping its ID: reversed for seed < 0, shuffled by seed otherwise.
func reordered(set *ruleset.Set, seed int64) *ruleset.Set {
	out := set.Clone()
	if seed < 0 {
		slices.Reverse(out.Patterns)
	} else {
		rand.New(rand.NewSource(seed)).Shuffle(len(out.Patterns), func(i, j int) {
			out.Patterns[i], out.Patterns[j] = out.Patterns[j], out.Patterns[i]
		})
	}
	return out
}

// requireSameMachine fails unless b is a, part for part: the lookup table,
// the stored rows and their index, the match memory, the baked program with
// its fast tier, the prefilter and every BuildStats field. Only the compile
// generation, an identity and not a decision, is left out.
func requireSameMachine(t testing.TB, what string, a, b *Machine) {
	t.Helper()
	for _, part := range []struct {
		name string
		a, b any
	}{
		{"lookup table", a.lut, b.lut},
		{"stored rows", a.stored, b.stored},
		{"row index", a.rows, b.rows},
		{"displaced descriptors", a.displaced, b.displaced},
		{"output memory", a.out, b.out},
		{"baked program", a.prog, b.prog},
		{"prefilter", a.pre, b.pre},
		{"BuildStats", a.Stats, b.Stats},
	} {
		if !reflect.DeepEqual(part.a, part.b) {
			t.Fatalf("%s: the %s differs", what, part.name)
		}
	}
}

// TestBuildIndependentOfRuleOrder: the machine is a function of the rule
// set, not of the order its rules are listed in. ac.New numbers states
// breadth-first, each state's children by character, so every tie the
// builder breaks by state number — a lookup-table row's defaults, the fast
// tier's promotions, the layout of every memory — is broken by path.
func TestBuildIndependentOfRuleOrder(t *testing.T) {
	for _, n := range []int{634, 1204} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			set := ruleset.MustGenerate(ruleset.GenConfig{N: n, Seed: 2010})
			want := mustBuild(t, set, Options{})
			for _, seed := range []int64{-1, 1, 2, 3} {
				got := mustBuild(t, reordered(set, seed), Options{})
				requireSameMachine(t, fmt.Sprintf("order %d", seed), want, got)
			}
		})
	}
}
