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
	reached := typesReachable(t, reflect.TypeOf(Machine{}), "Machine")
	for _, banned := range []any{ac.Trie{}, ac.Node{}} {
		if path, ok := reached[reflect.TypeOf(banned)]; ok {
			t.Errorf("%s is an %T: the machine must not hold the trie it was built from", path, banned)
		}
	}
	for _, table := range []any{outputTable{}, fastRow{}, Prefilter{}} {
		if _, ok := reached[reflect.TypeOf(table)]; !ok {
			t.Fatalf("the walk did not reach the machine's %T", table)
		}
	}
}

// typesReachable maps every type reachable from root's fields — through
// pointers, slices, arrays, maps and nested structs, exported or not — to
// the first path that reaches it. A field whose type hides what it holds
// (an interface, func, channel or unsafe pointer) is an error.
func typesReachable(t *testing.T, root reflect.Type, name string) map[reflect.Type]string {
	t.Helper()
	seen := map[reflect.Type]string{}
	var walk func(ty reflect.Type, path string)
	walk = func(ty reflect.Type, path string) {
		if _, ok := seen[ty]; ok {
			return
		}
		seen[ty] = path
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
	walk(root, name)
	return seen
}
