//go:build go1.24

package flowtable

// The weak package arrived in Go 1.24; go.mod allows 1.23, whose toolchains
// skip this file.

import (
	"runtime"
	"testing"
	"weak"
)

// TestFreedSlotHoldsNoRecord: a record that leaves the table — removed,
// settled, evicted idle or at the cap — is collected once Evict lets go of
// it, while the slot it sat in waits on the free list: a freed slot pins no
// generation and no out-of-order buffer.
func TestFreedSlotHoldsNoRecord(t *testing.T) {
	type record struct{ buf [64]byte }
	for _, tc := range []struct {
		name      string
		maxFlows  int
		idleTicks uint64
		end       func(tb *Table[*record], k Key)
	}{
		{"remove", 0, 0, func(tb *Table[*record], k Key) { tb.Remove(k) }},
		{"settle", 0, 0, func(tb *Table[*record], k Key) { tb.Settle(k, 1) }},
		{"idle", 0, 1, func(tb *Table[*record], _ Key) {
			tb.Do(tuple(1), func(**record) {}, nil)
			tb.Do(tuple(1), func(**record) {}, nil)
		}},
		{"capacity", 1, 0, func(tb *Table[*record], _ Key) { tb.Do(tuple(1), func(**record) {}, nil) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb := New(Config[*record]{
				New:       func(Key) *record { return new(record) },
				Evict:     func(Key, *record) {},
				MaxFlows:  tc.maxFlows,
				IdleTicks: tc.idleTicks,
			})
			k := tuple(0)
			var wp weak.Pointer[record]
			tb.Do(k, func(f **record) { wp = weak.Make(*f) }, nil)
			_, slot := tb.lookup(k)
			tc.end(tb, k)
			if _, r := tb.lookup(k); r&huskBit == 0 && r != 0 {
				t.Fatal("the connection is still in the table")
			}
			onFree := false
			for r := tb.conns.free; r != 0; r = tb.conns.at(r).next {
				onFree = onFree || r == slot
			}
			if !onFree {
				t.Fatalf("slot %d is not on the free list", slot)
			}
			runtime.GC()
			runtime.GC()
			if wp.Value() != nil {
				t.Fatal("the departed record is still reachable from the table")
			}
			audit(t, tb, "after the record left")
		})
	}
}
