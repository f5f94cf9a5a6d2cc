package core

import (
	"reflect"
	"testing"

	"repro/internal/ac"
)

// TestMachineHoldsNoTrie is the type-level half of the residency claim: no
// field reachable from a Machine — through pointers, slices, arrays, maps
// and nested structs, exported or not — has a trie's type, so a compiled
// generation cannot keep its scaffolding alive whatever Build does. (The
// measured half is the root package's TestMatcherFootprint.)
func TestMachineHoldsNoTrie(t *testing.T) {
	banned := map[reflect.Type]bool{
		reflect.TypeOf(ac.Trie{}): true,
		reflect.TypeOf(ac.Node{}): true,
		reflect.TypeOf(ac.Edge{}): true,
	}
	seen := map[reflect.Type]bool{}
	var walk func(ty reflect.Type, path string)
	walk = func(ty reflect.Type, path string) {
		if banned[ty] {
			t.Errorf("%s is an %s: the machine must not hold the trie it was built from", path, ty)
			return
		}
		if seen[ty] {
			return
		}
		seen[ty] = true
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(ty.Field(i).Type, path+"."+ty.Field(i).Name)
			}
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(ty.Elem(), path+"[]")
		case reflect.Map:
			walk(ty.Key(), path+"[key]")
			walk(ty.Elem(), path+"[]")
		case reflect.Interface, reflect.Func, reflect.Chan, reflect.UnsafePointer:
			t.Errorf("%s is a %s: what it holds cannot be told from its type", path, ty.Kind())
		}
	}
	walk(reflect.TypeOf(Machine{}), "Machine")
	if !seen[reflect.TypeOf(outputTable{})] || !seen[reflect.TypeOf(Program{})] || !seen[reflect.TypeOf(Prefilter{})] {
		t.Fatal("the walk did not reach the machine's tables")
	}
}
